package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The golden tests pin exact experiment outputs at a small scale. Every
// simulation is deterministic, so any diff means the timing or policy model
// changed — which must be a conscious decision, recorded by regenerating the
// files with:
//
//	go test ./internal/harness -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Skipf("golden file missing (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(run `go test ./internal/harness -run TestGolden -update` if the model change is intentional)",
			name, got, want)
	}
}

func goldenSession() *Session {
	return NewSession(Config{Scale: 0.05, Warps: 32, Parallelism: 4})
}

func TestGoldenFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "fig3_scale005", goldenSession().Fig3().String())
}

// TestGoldenFig8 pins the headline Fig. 8 sweep byte-for-byte at the smoke
// scale. Fig8 warms its keys through the shared-trace lockstep path, so this
// golden doubles as the drift gate for the sweep execution layer; the CI
// bench-sweep job diffs cppe-bench's output against the same file.
func TestGoldenFig8(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "fig8_scale005", goldenSession().Fig8().String())
}

func TestGoldenTableIII(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "table3_scale005", goldenSession().TableIII().String())
}

func TestGoldenSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "describe_nw_scale005", goldenSession().Describe(Key{"NW", "cppe", 50}))
}

// TestGoldenFig8Learned pins the learned-policy comparison sweep. The learned
// perceptron's decisions depend on seeded exploration and online weight
// updates, so this golden is the byte-level determinism gate for the whole
// learned stack: features read through the MachineView, splitmix64 draws, and
// fixed-point weight arithmetic. The CI policy-conformance job byte-diffs
// cppe-bench's fig8-learned output against the same file.
func TestGoldenFig8Learned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "fig8_learned_scale005", goldenSession().Fig8Learned().String())
}

// TestGoldenSweepT3 pins the Section VI-A forward-distance sweep, whose
// cppe-t3-* setups each override MHPE's T3. The CI bench-sweep job diffs
// cppe-bench's sweep-t3 output against the same file.
func TestGoldenSweepT3(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "sweep_t3_scale005", goldenSession().SweepT3().String())
}

// TestGoldenAblationMHPEDesign pins the interval, buffer and forward-distance
// ablations. The CI bench-sweep job diffs cppe-bench's ablation-mhpe-design
// output against the same file.
func TestGoldenAblationMHPEDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "ablation_mhpe_design_scale005", goldenSession().AblationMHPEDesign().String())
}

// variantSetups are the setups whose eviction half is MHPE with one option
// overridden.
var variantSetups = []string{
	"mhpe-probe",
	"cppe-t3-16", "cppe-t3-20", "cppe-t3-24", "cppe-t3-28", "cppe-t3-32", "cppe-t3-36", "cppe-t3-40",
	"cppe-int-32", "cppe-int-128",
	"cppe-buf-8", "cppe-buf-128",
	"cppe-fwd-2", "cppe-fwd-8",
}

// TestGoldenDescribeVariants pins the full instrumentation report of one run
// per MHPE variant setup. A two-decimal speedup table can hide a dropped
// option; the policy trajectory and breakdown tables in Describe cannot.
func TestGoldenDescribeVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := goldenSession()
	keys := make([]Key, len(variantSetups))
	for i, name := range variantSetups {
		keys[i] = Key{"HSD", name, 50}
	}
	s.Warm(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(s.Describe(k))
		b.WriteString("\n")
	}
	checkGolden(t, "describe_variants_hsd_scale005", b.String())
}
