package harness

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
)

// auditedGoldenConfig is the golden-session configuration with the integrity
// auditor enabled at its default cadence.
func auditedGoldenConfig() Config {
	base := memdef.DefaultConfig()
	base.AuditEveryCycles = audit.DefaultEveryCycles
	return Config{Base: base, Scale: 0.05, Warps: 32, Parallelism: 4}
}

// TestAuditInvisible asserts the integrity layer's core promise: enabling the
// auditor changes nothing. Results must be bit-for-bit identical with audits
// on, and clean runs must report no violation.
func TestAuditInvisible(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	keys := []Key{
		{Bench: "SRD", Setup: "cppe", OversubPct: 50},
		{Bench: "NW", Setup: "baseline", OversubPct: 75},
		{Bench: "STN", Setup: "random", OversubPct: 50},
	}
	plain := NewSession(Config{Scale: 0.05, Warps: 32, Parallelism: 4})
	audited := NewSession(auditedGoldenConfig())
	for _, k := range keys {
		a, b := plain.Run(k), audited.Run(k)
		if b.Err != nil {
			t.Errorf("%v: audit flagged a clean run: %v", k, b.Err)
		}
		if !reflect.DeepEqual(stripKey(a), stripKey(b)) {
			t.Errorf("%v: audit-enabled run diverged:\n  plain:   %+v\n  audited: %+v", k, a, b)
		}
	}
}

// TestGoldenSingleRunAudited re-pins the golden Describe output with the
// auditor enabled: the audit-enabled run must reproduce the exact golden file
// recorded without it.
func TestGoldenSingleRunAudited(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	if *update {
		t.Skip("golden owned by TestGoldenSingleRun")
	}
	s := NewSession(auditedGoldenConfig())
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
