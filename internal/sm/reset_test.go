package sm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/reproductions/cppe/internal/cache"
	"github.com/reproductions/cppe/internal/core"
	"github.com/reproductions/cppe/internal/dram"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/ptw"
	"github.com/reproductions/cppe/internal/tlb"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/workload"
	"github.com/reproductions/cppe/internal/xbus"
)

// resetKey is one simulation of the reset oracle: a Table II workload at
// scale 0.05 under a setup, at pct% of its footprint (0 = unlimited).
type resetKey struct {
	bench string
	setup core.Setup
	pct   int
}

func (k resetKey) String() string { return fmt.Sprintf("%s/%s@%d", k.bench, k.setup.Name, k.pct) }

// resetKeys are the oracle's keys, rate-major so neighbours differ in
// benchmark and therefore in footprint.
func resetKeys() []resetKey {
	var keys []resetKey
	for _, pct := range []int{50, 75, 0} {
		keys = append(keys,
			resetKey{"SRD", core.SetupCPPE, pct},
			resetKey{"HIS", core.SetupLearned, pct},
			resetKey{"STN", core.SetupDisableOnFull, pct},
			resetKey{"BFS", core.SetupTree, pct},
			resetKey{"NW", core.SetupBaseline, pct},
		)
	}
	return keys
}

var resetTraces = map[string]workload.Trace{}

// parts derives k's configuration from base, its fresh policy and
// prefetcher, its warps and its footprint.
func (k resetKey) parts(t *testing.T, base memdef.Config) (memdef.Config, evict.Policy, prefetch.Prefetcher, [][]memdef.Access, int) {
	t.Helper()
	tr, ok := resetTraces[k.bench]
	if !ok {
		b, found := workload.ByAbbr(k.bench)
		if !found {
			t.Fatalf("unknown benchmark %s", k.bench)
		}
		tr = b.Generate(workload.Options{Scale: 0.05, Warps: 32})
		resetTraces[k.bench] = tr
	}
	cfg := base
	if k.pct > 0 {
		pages := tr.FootprintPages * k.pct / 100
		cfg.MemoryPages = max(pages-pages%memdef.ChunkPages, 8*memdef.ChunkPages)
	}
	pol, err := k.setup.NewPolicy(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := k.setup.NewPrefetcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, pol, pf, tr.Warps, tr.FootprintPages
}

// freshFor builds a new machine for k.
func freshFor(t *testing.T, k resetKey, base memdef.Config) *Machine {
	cfg, pol, pf, warps, footprint := k.parts(t, base)
	m := NewMachine(cfg, pol, pf, warps)
	m.SetFootprint(footprint)
	return m
}

// recycleFor resets m in place for k.
func recycleFor(t *testing.T, m *Machine, k resetKey, base memdef.Config) {
	t.Helper()
	cfg, pol, pf, warps, footprint := k.parts(t, base)
	if err := m.Reset(cfg, pol, pf, warps); err != nil {
		t.Fatalf("Reset for %v: %v", k, err)
	}
	m.SetFootprint(footprint)
}

// observation is everything a run reports outside the snapshot: the result
// and every component's statistics.
type observation struct {
	Res    Result
	Final  finalState
	L2     cache.Stats
	DRAM   dram.Stats
	Link   xbus.Stats
	L1TLB  tlb.Stats
	L2TLB  tlb.Stats
	Walker ptw.Stats
	UVM    uvm.Progress
}

func observe(m *Machine, res Result) observation {
	l1, l2 := m.MMU.TLBStats()
	return observation{
		Res: res, Final: captureFinal(m, res), L2: m.L2.Stats(), DRAM: m.DRAM.Stats(),
		Link: m.Link.Stats(), L1TLB: l1, L2TLB: l2, Walker: m.MMU.WalkerStats(), UVM: m.MMU.Progress(),
	}
}

// sameState requires the recycled machine to snapshot to the fresh
// machine's bytes. The snapshot covers the registries, counters, queue and
// eviction window that a Result alone would not show. Machines that cannot
// be checkpointed (aborted runs, armed injectors) must refuse identically.
func sameState(t *testing.T, when string, fresh, recycled *Machine) {
	t.Helper()
	want, werr := snapshotBytes(fresh)
	got, gerr := snapshotBytes(recycled)
	if fmt.Sprint(werr) != fmt.Sprint(gerr) {
		t.Fatalf("%s: snapshot error %v, fresh machine's %v", when, gerr, werr)
	}
	if werr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: recycled machine snapshots to %d bytes differing from the fresh machine's %d", when, len(got), len(want))
	}
}

// checkRecycled resets m — whatever state its last run left — for k and
// holds it against a fresh machine for k: right after the reset, at a
// mid-run pause, after a second reset of the paused machine with the fresh
// machine's mid-run checkpoint restored into it, and at the end of the run.
func checkRecycled(t *testing.T, m *Machine, k resetKey, base memdef.Config) {
	t.Helper()
	fresh := freshFor(t, k, base)
	recycleFor(t, m, k, base)
	sameState(t, "after reset", fresh, m)

	const mid = 300_000
	_, fp := fresh.RunUntil(0, mid)
	_, rp := m.RunUntil(0, mid)
	if fp != rp {
		t.Fatalf("mid-run pause: fresh paused %v, recycled %v", fp, rp)
	}
	sameState(t, "mid-run", fresh, m)
	if blob, err := snapshotBytes(fresh); err == nil {
		recycleFor(t, m, k, base)
		if err := m.Restore(blob); err != nil {
			t.Fatalf("restore into a recycled machine: %v", err)
		}
		sameState(t, "after restore", fresh, m)
	}

	want := observe(fresh, fresh.Run(0))
	got := observe(m, m.Run(0))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run to completion differs:\n got %+v\nwant %+v", got, want)
	}
	sameState(t, "after the run", fresh, m)
}

// TestResetMatchesFresh is the reset-equals-fresh oracle: a machine recycled
// with Reset for a new key — after a completed run, a thrash abort or a
// RunUntil pause of a different key with a different footprint — must be
// indistinguishable from NewMachine for that key, byte for byte in its
// snapshot, through a whole run and a mid-run checkpoint/restore, with
// integrity auditing and with fault injection.
func TestResetMatchesFresh(t *testing.T) {
	keys := resetKeys()
	base := memdef.DefaultConfig()
	for i, prior := range keys {
		next := keys[(i+1)%len(keys)]
		t.Run("after-"+prior.String()+"/"+next.String(), func(t *testing.T) {
			m := freshFor(t, prior, base)
			m.Run(0)
			checkRecycled(t, m, next, base)
		})
	}
	t.Run("after-thrash-abort", func(t *testing.T) {
		cfg := base
		cfg.MemoryPages = 2 * memdef.ChunkPages
		var trace []memdef.Access
		for round := 0; round < 400; round++ {
			for c := 0; c < 3; c++ {
				trace = append(trace, memdef.Access{Addr: memdef.ChunkID(c).FirstPage().Addr(), Kind: memdef.Write})
			}
		}
		m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Access{trace, trace})
		m.SetFootprint(3 * memdef.ChunkPages)
		if res := m.Run(0); !res.Crashed || m.Eng.Pending() == 0 {
			t.Fatalf("setup: want a thrash abort with events still queued, got %+v with %d pending", res, m.Eng.Pending())
		}
		checkRecycled(t, m, keys[0], base)
	})
	t.Run("after-pause", func(t *testing.T) {
		m := freshFor(t, keys[1], base)
		if _, paused := m.RunUntil(0, 150_000); !paused {
			t.Fatal("setup: run finished before the pause")
		}
		checkRecycled(t, m, keys[3], base)
	})
	t.Run("audit", func(t *testing.T) {
		audited := base
		audited.AuditEveryCycles = 50_000
		m := freshFor(t, keys[2], audited)
		m.Run(0)
		checkRecycled(t, m, keys[5], audited)
	})
	t.Run("chaos", func(t *testing.T) {
		chaos := base
		chaos.ChaosSeed = 11
		m := freshFor(t, keys[0], chaos)
		m.Run(0)
		checkRecycled(t, m, keys[4], chaos)
	})
}

// TestResetRejectsShapeChange pins Reset's contract: only MemoryPages may
// differ from the configuration a machine was built with.
func TestResetRejectsShapeChange(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Access{seqTrace(0, 8)})
	m.Run(0)
	resized := cfg
	resized.MemoryPages = 8 * memdef.ChunkPages
	if err := m.Reset(resized, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Access{seqTrace(0, 8)}); err != nil {
		t.Fatalf("capacity change refused: %v", err)
	}
	reshaped := cfg
	reshaped.NumSMs++
	if err := m.Reset(reshaped, evict.NewLRU(), prefetch.NewLocality(), nil); err == nil {
		t.Fatal("reset to a different NumSMs accepted")
	}
}
