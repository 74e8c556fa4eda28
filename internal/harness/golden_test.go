package harness

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reproductions/cppe/internal/stats"
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
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if string(want) != got {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s\n(run `go test ./internal/harness -run TestGolden -update` if the model change is intentional)",
			name, got, want)
	}
}

func goldenSession() *Session {
	return NewSession(Config{Scale: 0.05, Warps: 32, Parallelism: 4})
}

// render warms the simulations e reads on s in one pool, then renders e
// from s's results, as the facade does.
func render(s *Session, e Experiment) *stats.Table {
	if e.Keys != nil {
		s.Warm(e.Keys(s.cfg))
	}
	return e.Render(s.Run, s.cfg)
}

// experiment renders the experiment with the given id on s.
func experiment(t *testing.T, s *Session, id string) *stats.Table {
	t.Helper()
	e, ok := LookupExperiment(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	return render(s, e)
}

// TestGoldenExperiments pins every experiment's table byte-for-byte at the
// smoke scale, one golden file per id (<id with - as _>_scale005.golden).
// The fig8 golden doubles as the drift gate for the sweep execution layer,
// and fig8-learned as the determinism gate for the learned policy stack
// (seeded exploration, fixed-point weights); the CI bench-sweep job diffs
// cppe-bench's full output against the same files.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := goldenSession()
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			checkGolden(t, strings.ReplaceAll(e.ID, "-", "_")+"_scale005", render(s, e).String())
		})
	}
}

func TestGoldenSingleRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	checkGolden(t, "describe_nw_scale005", goldenSession().Describe(Key{"NW", "cppe", 50}))
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
