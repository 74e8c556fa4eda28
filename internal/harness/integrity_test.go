package harness

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
)

// TestGoldenSingleRunAudited re-pins the golden Describe output with the
// auditor enabled at its default cadence: the audit-enabled run must
// reproduce the exact golden file recorded without it.
func TestGoldenSingleRunAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if *update {
		t.Skip("golden owned by TestGoldenSingleRun")
	}
	base := memdef.DefaultConfig()
	base.AuditEveryCycles = audit.DefaultEveryCycles
	s := NewSession(Config{Base: base, Scale: 0.05, Warps: 32, Parallelism: 4})
	checkGolden(t, "describe_nw_scale005", s.Describe(Key{Bench: "NW", Setup: "cppe", OversubPct: 50}))
}

// panicPolicy is a test-only eviction policy that panics on the first far
// fault, simulating a buggy policy plugin inside one run of a sweep.
type panicPolicy struct{}

func (panicPolicy) Name() string                                { return "boom" }
func (panicPolicy) OnFault(memdef.ChunkID)                      { panic("boom policy: injected panic") }
func (panicPolicy) OnMigrate(memdef.ChunkID, memdef.PageBitmap) {}
func (panicPolicy) OnTouch(memdef.ChunkID, int)                 {}
func (panicPolicy) SelectVictim(func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	return 0, false
}
func (panicPolicy) OnEvicted(memdef.ChunkID, int) {}

// TestPanicIsolatedInParallelSweep injects a panicking policy into one run of
// a parallel sweep and asserts the panic is contained: the broken run fails
// with ErrPanic (and a stack), and every other run completes normally. The
// same key run through RunResumable fails the same way.
func TestPanicIsolatedInParallelSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(Config{Scale: 0.05, Warps: 8, Parallelism: 4})
	registerTestPolicy(t, policy.Registration{
		Name: "test-boom", Kind: policy.KindEviction,
		NewEviction: func(policy.Env) (evict.Policy, error) { return panicPolicy{}, nil },
	})
	keys := []Key{
		{Bench: "SRD", Setup: "test-boom+locality", OversubPct: 50},
		{Bench: "SRD", Setup: "baseline", OversubPct: 50},
		{Bench: "NW", Setup: "baseline", OversubPct: 50},
		{Bench: "STN", Setup: "baseline", OversubPct: 50},
	}
	checkPanic := func(path string, r Result) {
		t.Helper()
		if !r.Crashed || !errors.Is(r.Err, ErrPanic) {
			t.Fatalf("%s: panicking run not contained: crashed=%v err=%v", path, r.Crashed, r.Err)
		}
		if !strings.Contains(r.Err.Error(), "boom policy: injected panic") ||
			!strings.Contains(r.Err.Error(), "goroutine") {
			t.Errorf("%s: panic error lacks value or stack: %v", path, r.Err)
		}
	}
	s.Warm(keys)
	for _, k := range keys {
		r := s.Run(k)
		if k == keys[0] {
			checkPanic("Warm", r)
			continue
		}
		if r.Err != nil || r.Crashed || r.Cycles == 0 {
			t.Errorf("%v: sibling run affected by injected panic: %+v", k, r)
		}
	}

	r, err := NewSession(s.cfg).RunResumable(keys[0], filepath.Join(t.TempDir(), "job"), 1<<12, nil, nil)
	if err != nil {
		t.Fatalf("RunResumable: %v", err)
	}
	checkPanic("RunResumable", r)
}
