package inject_test

import (
	"errors"
	"testing"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/inject"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/sm"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/workload"
)

// buildMachine assembles a small oversubscribed CPPE machine for chaos runs.
// auditEvery == 0 disables auditing; chaosSeed == 0 disables injection.
func buildMachine(t *testing.T, chaosSeed int64, auditEvery memdef.Cycle) *sm.Machine {
	t.Helper()
	bench, ok := workload.ByAbbr("SRD")
	if !ok {
		t.Fatal("SRD benchmark missing")
	}
	gen := bench.Generate(workload.Options{Scale: 0.05, Warps: 8, AccessesPerPage: 2})
	cfg := memdef.DefaultConfig()
	// 50% oversubscription, chunk-aligned.
	capacity := gen.FootprintPages / 2
	capacity -= capacity % memdef.ChunkPages
	if min := 8 * memdef.ChunkPages; capacity < min {
		capacity = min
	}
	cfg.MemoryPages = capacity
	cfg.ChaosSeed = chaosSeed
	cfg.AuditEveryCycles = auditEvery
	pol, err := policy.NewEviction("mhpe", policy.Env{Config: cfg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := policy.NewPrefetch("pattern-s2", policy.Env{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	m := sm.NewMachine(cfg, pol, pf, gen.Warps)
	m.SetFootprint(gen.FootprintPages)
	return m
}

// TestChaosCleanRun runs a chaos-seeded, audit-enabled simulation and asserts
// the injected perturbations (delays, reorders, transient fault failures) are
// all absorbed: the driver recovers, no invariant breaks, the run completes.
func TestChaosCleanRun(t *testing.T) {
	m := buildMachine(t, 0xC0FFEE, audit.DefaultEveryCycles)
	res := m.Run(0)
	if res.Err != nil {
		t.Fatalf("chaos run failed: %v", res.Err)
	}
	if res.Cycles == 0 || res.Accesses == 0 {
		t.Fatalf("degenerate chaos run: %+v", res)
	}
	if aud := m.Auditor(); aud == nil || !aud.Clean() || aud.ChecksRun() == 0 {
		t.Fatalf("auditor did not run cleanly: %+v", aud)
	}
	st := m.Injector().Stats()
	if st.DelayedCommits == 0 && st.ReorderedCommits == 0 && st.FaultFailures == 0 {
		t.Fatalf("injector armed but idle: %+v", st)
	}
	if st.FaultFailures > 0 && m.MMU.Stats().FaultRetries == 0 {
		t.Fatalf("injected fault failures but no driver retries: inj=%+v uvm=%+v",
			st, m.MMU.Stats())
	}
}

// TestChaosDeterministicReplay asserts a chaos seed reproduces its run
// exactly: same results, same perturbation counts.
func TestChaosDeterministicReplay(t *testing.T) {
	a := buildMachine(t, 42, audit.DefaultEveryCycles)
	b := buildMachine(t, 42, audit.DefaultEveryCycles)
	ra, rb := a.Run(0), b.Run(0)
	if ra != rb {
		t.Fatalf("same chaos seed diverged:\n  a: %+v\n  b: %+v", ra, rb)
	}
	if sa, sb := a.Injector().Stats(), b.Injector().Stats(); sa != sb {
		t.Fatalf("same chaos seed, different perturbations:\n  a: %+v\n  b: %+v", sa, sb)
	}
}

// TestChaosAuditInvisibleUnderInjection asserts the auditor stays invisible
// even in chaos runs: same seed with and without audits must agree on every
// simulation observable.
func TestChaosAuditInvisibleUnderInjection(t *testing.T) {
	plain := buildMachine(t, 7, 0)
	audited := buildMachine(t, 7, audit.DefaultEveryCycles)
	rp, ra := plain.Run(0), audited.Run(0)
	if rp != ra {
		t.Fatalf("audit changed a chaos run:\n  plain:   %+v\n  audited: %+v", rp, ra)
	}
}

// TestChaosCorruptionCaught forces each corruption class mid-run and asserts
// the auditor catches it with a structured IntegrityError of the expected
// class, fail-stopping the run.
func TestChaosCorruptionCaught(t *testing.T) {
	kinds := []struct {
		name string
		kind uvm.CorruptKind
	}{
		{"accounting", uvm.CorruptAccounting},
		{"resident-bit", uvm.CorruptResidentBit},
		{"tlb", uvm.CorruptTLB},
		{"chain", uvm.CorruptChain},
		{"pending-fault", uvm.CorruptPendingFault},
	}
	for _, tc := range kinds {
		t.Run(tc.name, func(t *testing.T) {
			// Tight audit cadence: the violation is caught within 10k cycles
			// of the probe, before corrupted state can cascade.
			m := buildMachine(t, 0, 10_000)
			var wantClass audit.Class
			applied := false
			var probe func()
			probe = func() {
				class, ok := m.MMU.Corrupt(tc.kind)
				wantClass = class
				if ok {
					applied = true
					return
				}
				// Machine not warmed up enough for this probe yet: retry.
				m.Eng.Schedule(50_000, probe)
			}
			m.Eng.Schedule(100_000, probe)
			res := m.Run(0)
			if !applied {
				t.Fatalf("corruption probe never applied")
			}
			if res.Err == nil {
				t.Fatalf("corruption %s not detected", tc.name)
			}
			var ie *audit.IntegrityError
			if !errors.As(res.Err, &ie) {
				t.Fatalf("Err is %T (%v), want *audit.IntegrityError", res.Err, res.Err)
			}
			if ie.Class != wantClass {
				t.Errorf("caught class %q, want %q (check %q: %s)", ie.Class, wantClass, ie.Check, ie.Detail)
			}
			if !res.Crashed {
				t.Errorf("corrupted run not marked crashed")
			}
			if ie.Snapshot.UsedPages == 0 && ie.Snapshot.ResidentPages == 0 {
				t.Errorf("integrity error lacks a diagnostic snapshot: %+v", ie)
			}
		})
	}
}

// TestChaosBoundedRetryExhaustion drives the injector past the driver's retry
// budget and asserts the run aborts with the typed ErrFaultService instead of
// hanging or panicking.
func TestChaosBoundedRetryExhaustion(t *testing.T) {
	m := buildMachine(t, 0, 0)
	// Every attempt fails, with more failures allowed than the driver's
	// budget of attempts: service can never succeed.
	m.MMU.SetInjector(inject.New(inject.Options{
		Seed:                1,
		FaultFailProb:       1.0,
		MaxFailuresPerFault: 1 << 20,
	}))
	res := m.Run(0)
	if !errors.Is(res.Err, uvm.ErrFaultService) {
		t.Fatalf("Err = %v, want ErrFaultService", res.Err)
	}
	if !res.Crashed {
		t.Fatalf("retry-exhausted run not marked crashed")
	}
}
