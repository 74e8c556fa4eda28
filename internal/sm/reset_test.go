package sm

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/reproductions/cppe/internal/cache"
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
	setup setup
	pct   int
}

func (k resetKey) String() string { return fmt.Sprintf("%s/%s@%d", k.bench, k.setup.Name, k.pct) }

// resetKeys are the oracle's keys, rate-major so neighbours differ in
// benchmark and therefore in footprint.
func resetKeys() []resetKey {
	var keys []resetKey
	for _, pct := range []int{50, 75, 0} {
		keys = append(keys,
			resetKey{"SRD", cppe, pct},
			resetKey{"HIS", learned, pct},
			resetKey{"STN", disableOnFull, pct},
			resetKey{"BFS", tree, pct},
			resetKey{"NW", baseline, pct},
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
	pol, pf := k.setup.build(t, cfg, 7)
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

// observation is everything a machine reports: the result, every
// component's statistics, and the engine's clock, fired-event count and
// queue length.
type observation struct {
	Res     Result
	UVM     uvm.Stats
	SMStats []SMStats
	L2      cache.Stats
	DRAM    dram.Stats
	Link    xbus.Stats
	L1TLB   tlb.Stats
	L2TLB   tlb.Stats
	Walker  ptw.Stats
	Now     memdef.Cycle
	Fired   uint64
	Pending int
}

func observe(m *Machine, res Result) observation {
	l1, l2 := m.MMU.TLBStats()
	return observation{
		Res: res, UVM: m.MMU.Stats(), SMStats: m.SMStats(), L2: m.L2.Stats(), DRAM: m.DRAM.Stats(),
		Link: m.Link.Stats(), L1TLB: l1, L2TLB: l2, Walker: m.MMU.WalkerStats(),
		Now: m.Eng.Now(), Fired: m.Eng.Fired(), Pending: m.Eng.Pending(),
	}
}

// sameObservation requires the recycled machine to report what the fresh
// machine reports.
func sameObservation(t *testing.T, when string, fresh, recycled observation) {
	t.Helper()
	if !reflect.DeepEqual(recycled, fresh) {
		t.Fatalf("%s: recycled machine differs from a fresh one:\n got %+v\nwant %+v", when, recycled, fresh)
	}
}

// checkRecycled resets m — whatever state its last run left — for k and
// holds it against a fresh machine for k: right after the reset, at a pause
// every 100,000 cycles, and at the end of the run.
func checkRecycled(t *testing.T, m *Machine, k resetKey, base memdef.Config) {
	t.Helper()
	fresh := freshFor(t, k, base)
	recycleFor(t, m, k, base)
	sameObservation(t, "after reset", observe(fresh, Result{}), observe(m, Result{}))

	const every = 100_000
	for at := memdef.Cycle(every); ; at += every {
		fres, fp := fresh.RunUntil(0, at)
		rres, rp := m.RunUntil(0, at)
		if fp != rp {
			t.Fatalf("pause at %d: fresh paused %v, recycled %v", at, fp, rp)
		}
		when := fmt.Sprintf("pause at %d", at)
		if !fp {
			when = "after the run"
		}
		sameObservation(t, when, observe(fresh, fres), observe(m, rres))
		if !fp {
			return
		}
	}
}

// TestResetMatchesFresh is the reset-equals-fresh oracle: a machine recycled
// with Reset for a new key — after a completed run, a thrash abort or a
// RunUntil pause of a different key with a different footprint — must be
// indistinguishable from NewMachine for that key in everything it reports,
// from the reset through every pause of the run to its end, with integrity
// auditing and with fault injection.
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
