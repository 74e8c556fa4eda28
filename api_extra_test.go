package cppe

import (
	"bytes"
	"encoding/csv"
	"os/exec"
	"strings"
	"testing"

	"github.com/reproductions/cppe/internal/trace"
	"github.com/reproductions/cppe/internal/workload"
)

func TestRunTraceFromRoundTrip(t *testing.T) {
	// Serialize a generated workload and replay it; counters must be sane
	// and deterministic across replays.
	b, _ := workload.ByAbbr("STN")
	wtr := b.Generate(workload.Options{Scale: 0.05, Warps: 16})
	var buf bytes.Buffer
	if err := trace.Write(&buf, &trace.Trace{FootprintPages: wtr.FootprintPages, Warps: wtr.Warps}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	s := NewSession(Options{Scale: 0.05, Warps: 16})
	r1, err := s.RunTraceFrom(bytes.NewReader(raw), SetupCPPE, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Accesses != uint64(wtr.Accesses) || r1.Cycles == 0 {
		t.Fatalf("replay result = %+v", r1)
	}
	r2, err := s.RunTraceFrom(bytes.NewReader(raw), SetupCPPE, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Fatal("trace replay nondeterministic")
	}
	// And the replay must match the directly-generated simulation.
	direct := s.MustRun(Request{Benchmark: "STN", Setup: SetupCPPE, Oversubscription: 50})
	if direct.Cycles != r1.Cycles {
		t.Fatalf("replayed %d cycles != generated %d", r1.Cycles, direct.Cycles)
	}
}

func TestRunTraceFromValidation(t *testing.T) {
	s := NewSession(Options{Scale: 0.05})
	if _, err := s.RunTraceFrom(strings.NewReader("garbage-not-a-trace"), SetupCPPE, 50); err == nil {
		t.Error("garbage trace accepted")
	}
	if _, err := s.RunTraceFrom(strings.NewReader(""), "nope", 50); err == nil {
		t.Error("unknown setup accepted")
	}
	if _, err := s.RunTraceFrom(strings.NewReader(""), SetupCPPE, 200); err == nil {
		t.Error("bad rate accepted")
	}
}

func TestExperimentCSV(t *testing.T) {
	s := NewSession(Options{Scale: 0.05, Warps: 16})
	var buf bytes.Buffer
	if err := s.ExperimentCSV(ExpTable2, &buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 24 { // header + 23 workloads
		t.Fatalf("rows = %d", len(rows))
	}
	if err := s.ExperimentCSV("nope", &buf); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestExperimentBarsValidation(t *testing.T) {
	s := NewSession(Options{Scale: 0.05, Warps: 16})
	if _, err := s.ExperimentBars(ExpTable1); err == nil {
		t.Error("bars for a non-figure experiment accepted")
	}
	if _, err := s.ExperimentBars("nope"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestExperimentBarsFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(Options{Scale: 0.05, Warps: 32})
	out, err := s.ExperimentBars(ExpFig3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "SRD") {
		t.Fatalf("bars missing content:\n%s", out)
	}
	// One chart per setup column.
	if got := strings.Count(out, "== Fig. 3"); got != 3 {
		t.Fatalf("charts = %d, want 3", got)
	}
}

// TestCommandsBuild ensures every cmd and example compiles as a main package.
func TestCommandsBuild(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the go tool")
	}
	cmd := exec.Command("go", "build", "./cmd/...", "./examples/...")
	cmd.Dir = "."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build failed: %v\n%s", err, out)
	}
}

func TestNewSessionWithSystem(t *testing.T) {
	s, err := NewSessionWithSystem(Options{Scale: 0.05, Warps: 16}, []byte(`{"PCIeGBs": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	fast := s.MustRun(Request{Benchmark: "STN", Setup: SetupBaseline, Oversubscription: 50})
	slow := NewSession(Options{Scale: 0.05, Warps: 16}).
		MustRun(Request{Benchmark: "STN", Setup: SetupBaseline, Oversubscription: 50})
	if fast.Cycles >= slow.Cycles {
		t.Fatalf("4x link bandwidth did not speed things up: %d vs %d", fast.Cycles, slow.Cycles)
	}
	if _, err := NewSessionWithSystem(Options{}, []byte(`{"NumSMs": -1}`)); err == nil {
		t.Error("invalid system config accepted")
	}
}

// TestTableIShowsSessionSystem: Table I describes the system the session
// simulates, not the paper's default one.
func TestTableIShowsSessionSystem(t *testing.T) {
	s, err := NewSessionWithSystem(Options{}, []byte(`{"NumSMs": 16, "L1TLBEntries": 64}`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Experiment(ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"16 SMs, 1.4GHz", "64-entry per SM"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestDefaultSystemJSON(t *testing.T) {
	data := DefaultSystemJSON()
	if !strings.Contains(string(data), "\"NumSMs\": 28") {
		t.Fatalf("json = %s", data)
	}
	// Must round-trip through NewSessionWithSystem unchanged.
	if _, err := NewSessionWithSystem(Options{}, data); err != nil {
		t.Fatal(err)
	}
}

func TestDescribe(t *testing.T) {
	s := NewSession(Options{Scale: 0.05, Warps: 16})
	out, err := s.Describe(Request{Benchmark: "STN", Setup: SetupCPPE, Oversubscription: 50})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"translation paths", "MHPE trajectory", "pattern buffer", "fault"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Baseline report must not contain policy-specific sections.
	out, err = s.Describe(Request{Benchmark: "STN", Setup: SetupBaseline, Oversubscription: 50})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "MHPE trajectory") {
		t.Error("baseline report contains MHPE section")
	}
	if _, err := s.Describe(Request{Benchmark: "NOPE", Setup: SetupCPPE}); err == nil {
		t.Error("bad request accepted")
	}
}
