package sm

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/ptw"
	"github.com/reproductions/cppe/internal/uvm"
)

// The events golden pins how many events of each tag kind a run fires per
// completed access. Event counts are deterministic where host time is not,
// so a change that adds or removes events shows up here as a reviewed diff.
// Regenerate it, when the change is intended, with:
//
//	go test ./internal/sm -run TestEventsPerAccessGolden -update
var update = flag.Bool("update", false, "rewrite the events golden file")

// kindNames names every tag kind the simulated machine schedules.
var kindNames = map[engine.Tag]string{
	engine.OtherKinds:   "other",
	TagWarpStep:         "sm.WarpStep",
	TagWarpL1:           "sm.WarpL1",
	TagWarpFin:          "sm.WarpFin",
	TagMemL2:            "sm.MemL2",
	ptw.TagWalkGrant:    "ptw.WalkGrant",
	ptw.TagWalkStage:    "ptw.WalkStage",
	ptw.TagWalkMem:      "ptw.WalkMem",
	uvm.TagXlatL1:       "uvm.XlatL1",
	uvm.TagXlatL2Grant:  "uvm.XlatL2Grant",
	uvm.TagXlatL2Stage:  "uvm.XlatL2Stage",
	uvm.TagXlatFault:    "uvm.XlatFault",
	uvm.TagProcessFault: "uvm.ProcessFault",
	uvm.TagFaultRetry:   "uvm.FaultRetry",
	uvm.TagMigSvc:       "uvm.MigSvc",
	uvm.TagMigXfer:      "uvm.MigXfer",
	uvm.TagCommitDelay:  "uvm.CommitDelay",
	uvm.TagCommitFlush:  "uvm.CommitFlush",
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// eventsPerAccess runs each reset-oracle key on a new machine and renders
// its fired events per kind: the count and the count per completed access.
func eventsPerAccess(t *testing.T) string {
	var b strings.Builder
	base := memdef.DefaultConfig()
	for _, k := range resetKeys() {
		m := freshFor(t, k, base)
		res := m.Run(0)
		if res.Err != nil || res.Accesses == 0 {
			t.Fatalf("%v: %d accesses, err %v", k, res.Accesses, res.Err)
		}
		kinds := m.Eng.FiredByKind()
		perAccess := func(n uint64) float64 { return float64(n) / float64(res.Accesses) }
		fmt.Fprintf(&b, "%v: %d accesses, %d events, %.4f per access\n", k, res.Accesses, m.Eng.Fired(), perAccess(m.Eng.Fired()))
		for _, kind := range sortedKeys(kinds) {
			name, ok := kindNames[kind]
			if !ok {
				name = "unnamed"
			}
			fmt.Fprintf(&b, "  %#04x %-16s %9d %9.4f\n", kind, name, kinds[kind], perAccess(kinds[kind]))
		}
	}
	return b.String()
}

// TestEventsPerAccessGolden pins the fired events per kind of the reset
// oracle's 15 keys at scale 0.05 with 32 warps. The counts are observation
// only; no Result or run record carries them.
func TestEventsPerAccessGolden(t *testing.T) {
	got := eventsPerAccess(t)
	path := filepath.Join("testdata", "events_per_access_scale005.golden")
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
		t.Errorf("events per access drifted from %s.\n--- got ---\n%s\n--- want ---\n%s\n(run `go test ./internal/sm -run TestEventsPerAccessGolden -update` if the change is intended)",
			path, got, want)
	}
}
