package sm

import (
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/workload"
)

// setup names an evaluation setup's registry eviction policy and prefetcher.
type setup struct{ Name, evict, prefetch string }

var (
	baseline      = setup{"baseline", "lru", "locality"}
	cppe          = setup{"cppe", "mhpe", "pattern-s2"}
	disableOnFull = setup{"disable-on-full", "lru", "disable-on-full"}
	learned       = setup{"learned", "learned", "pattern-s2"}
	tree          = setup{"tree", "lru", "tree"}
)

// build constructs the setup's policy (seeded with seed) and prefetcher for
// a machine with cfg.
func (su setup) build(t *testing.T, cfg memdef.Config, seed int64) (evict.Policy, prefetch.Prefetcher) {
	t.Helper()
	pol, err := policy.NewEviction(su.evict, policy.Env{Config: cfg, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := policy.NewPrefetch(su.prefetch, policy.Env{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return pol, pf
}

// buildFor assembles a machine for one benchmark/setup/rate.
func buildFor(t *testing.T, abbr string, su setup, pct int) (*Machine, workload.Trace) {
	t.Helper()
	b, ok := workload.ByAbbr(abbr)
	if !ok {
		t.Fatalf("unknown benchmark %s", abbr)
	}
	tr := b.Generate(workload.Options{Scale: 0.05, Warps: 32})
	cfg := memdef.DefaultConfig()
	if pct > 0 {
		cap := tr.FootprintPages * pct / 100
		cap -= cap % memdef.ChunkPages
		cfg.MemoryPages = cap
	}
	pol, pf := su.build(t, cfg, 7)
	m := NewMachine(cfg, pol, pf, tr.Warps)
	m.SetFootprint(tr.FootprintPages)
	return m, tr
}

// TestConservationInvariants checks system-wide accounting identities across
// every pattern archetype and the main setups.
func TestConservationInvariants(t *testing.T) {
	benches := []string{"2DC", "KMN", "NW", "SRD", "HIS", "B+T"} // one per type
	setups := []setup{baseline, cppe, disableOnFull}
	for _, abbr := range benches {
		for _, su := range setups {
			m, tr := buildFor(t, abbr, su, 50)
			res := m.Run(0)
			if res.Crashed {
				t.Fatalf("%s/%s crashed", abbr, su.Name)
			}
			s := m.MMU.Stats()

			// Every generated access completed.
			if res.Accesses != uint64(tr.Accesses) {
				t.Errorf("%s/%s: %d of %d accesses completed", abbr, su.Name, res.Accesses, tr.Accesses)
			}
			// Migration/eviction page conservation: resident = in - out.
			resident := int(s.MigratedPages) - int(s.EvictedPages)
			if resident != m.MMU.ResidentPages() {
				t.Errorf("%s/%s: resident %d != migrated-evicted %d",
					abbr, su.Name, m.MMU.ResidentPages(), resident)
			}
			// Residency never exceeds capacity.
			if cap := m.Cfg.MemoryPages; cap > 0 && s.PeakResidentPages > cap {
				t.Errorf("%s/%s: peak residency %d exceeds capacity %d",
					abbr, su.Name, s.PeakResidentPages, cap)
			}
			// Every touched page was migrated at least once.
			if s.MigratedPages < uint64(tr.TouchedPages) {
				t.Errorf("%s/%s: migrated %d < touched %d",
					abbr, su.Name, s.MigratedPages, tr.TouchedPages)
			}
			// The walker only runs on L2 TLB misses.
			if w := m.MMU.WalkerStats(); w.Walks != s.Walks {
				t.Errorf("%s/%s: walker walks %d != mmu walks %d", abbr, su.Name, w.Walks, s.Walks)
			}
			// Fault events cannot exceed walks.
			if s.FaultEvents > s.Walks {
				t.Errorf("%s/%s: faults %d > walks %d", abbr, su.Name, s.FaultEvents, s.Walks)
			}
			// TLB accounting: accesses = L1 hits + L1 misses.
			l1, _ := m.MMU.TLBStats()
			if l1.Hits+l1.Misses != s.Accesses {
				t.Errorf("%s/%s: L1 TLB %d+%d != accesses %d",
					abbr, su.Name, l1.Hits, l1.Misses, s.Accesses)
			}
		}
	}
}

// TestUnlimitedMemoryMatchesFootprint verifies the discovery pass: with no
// capacity limit, peak residency equals the touched chunk span's migrated
// pages and nothing is ever evicted.
func TestUnlimitedMemoryMatchesFootprint(t *testing.T) {
	for _, abbr := range []string{"HOT", "MVT", "B+T"} {
		m, _ := buildFor(t, abbr, baseline, 0)
		res := m.Run(0)
		s := m.MMU.Stats()
		if s.EvictedPages != 0 {
			t.Errorf("%s: evicted %d pages with unlimited memory", abbr, s.EvictedPages)
		}
		if s.PeakResidentPages != int(s.MigratedPages) {
			t.Errorf("%s: peak %d != migrated %d", abbr, s.PeakResidentPages, s.MigratedPages)
		}
		if res.Crashed {
			t.Errorf("%s: crashed with unlimited memory", abbr)
		}
	}
}

// TestOversubscriptionMonotonicity: tighter memory can only increase faults
// and execution time for the thrashing archetype.
func TestOversubscriptionMonotonicity(t *testing.T) {
	var prevCycles memdef.Cycle
	var prevFaults uint64
	for i, pct := range []int{0, 75, 50} {
		m, _ := buildFor(t, "SRD", baseline, pct)
		res := m.Run(0)
		s := m.MMU.Stats()
		if i > 0 {
			if res.Cycles < prevCycles {
				t.Errorf("cycles decreased when memory shrank: %d -> %d at %d%%", prevCycles, res.Cycles, pct)
			}
			if s.FaultEvents < prevFaults {
				t.Errorf("faults decreased when memory shrank: %d -> %d at %d%%", prevFaults, s.FaultEvents, pct)
			}
		}
		prevCycles, prevFaults = res.Cycles, s.FaultEvents
	}
}

// TestSharedPageAcrossAllWarps: a single hot page touched by every warp must
// fault exactly once and merge everything else.
func TestSharedPageAcrossAllWarps(t *testing.T) {
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 8
	cfg.WarpsPerSM = 4
	traces := make([][]memdef.Access, 32)
	for w := range traces {
		for i := 0; i < 10; i++ {
			traces[w] = append(traces[w], memdef.Access{Addr: memdef.PageNum(5).Addr()})
		}
	}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), traces)
	res := m.Run(0)
	s := m.MMU.Stats()
	if s.FaultEvents != 1 {
		t.Fatalf("fault events = %d, want 1 (all faults to one page must merge)", s.FaultEvents)
	}
	if res.Accesses != 320 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if s.MigratedPages != memdef.ChunkPages {
		t.Fatalf("migrated = %d", s.MigratedPages)
	}
}

// TestWidelyScatteredAddresses: accesses scattered across the 48-bit VA space
// must not break the page table or the TLBs.
func TestWidelyScatteredAddresses(t *testing.T) {
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 4
	cfg.WarpsPerSM = 2
	var tr []memdef.Access
	for i := 0; i < 50; i++ {
		// Spread chunks across distant regions of the VA space.
		addr := memdef.VirtAddr(uint64(i) * 0x3f_0000_1000 % (1 << 47))
		tr = append(tr, memdef.Access{Addr: addr})
	}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Access{tr})
	res := m.Run(0)
	if res.Crashed || res.Accesses != 50 {
		t.Fatalf("res = %+v", res)
	}
}

// TestPatternPrefetchEndToEndFig6 drives the Fig. 6 scenario through the full
// machine: a strided chunk is evicted, refetched via its pattern, then a
// non-pattern page faults and the whole chunk is completed.
func TestPatternPrefetchEndToEndFig6(t *testing.T) {
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 1
	cfg.WarpsPerSM = 1
	cfg.MemoryPages = 2 * memdef.ChunkPages

	stride := func(c memdef.ChunkID) []memdef.Access {
		var out []memdef.Access
		for i := 0; i < memdef.ChunkPages; i += 2 {
			out = append(out, memdef.Access{Addr: c.Page(i).Addr()})
		}
		return out
	}
	var tr []memdef.Access
	// Phase 1: strided touch of chunk 0, then fill memory with chunks 1, 2
	// to evict chunk 0 (untouch 8 -> pattern recorded).
	tr = append(tr, stride(0)...)
	tr = append(tr, stride(1)...)
	tr = append(tr, stride(2)...)
	// Phase 2: strided re-touch of chunk 0 (pattern match: 8 pages only).
	tr = append(tr, stride(0)...)
	// Phase 3: off-pattern page of chunk 0.
	tr = append(tr, memdef.Access{Addr: memdef.ChunkID(0).Page(1).Addr()})

	pol, pf := cppe.build(t, cfg, 0)
	m := NewMachine(cfg, pol, pf, [][]memdef.Access{tr})
	res := m.Run(0)
	if res.Crashed {
		t.Fatal("crashed")
	}
	ps := pf.(*prefetch.Pattern).Stats()
	if ps.Recorded == 0 {
		t.Fatal("pattern never recorded")
	}
	if ps.Matches == 0 {
		t.Fatal("pattern never matched")
	}
	if ps.Mismatches == 0 {
		t.Fatal("off-pattern fault never mismatched")
	}
	// Scheme-2: the entry must survive the post-match mismatch.
	if ps.Deletions != 0 {
		t.Fatalf("Scheme-2 deleted %d entries after a match", ps.Deletions)
	}
}

// TestDeterminismAcrossParallelRuns runs the same simulation twice and in a
// different interleaving context; cycle counts must be identical because each
// machine owns a private engine.
func TestDeterminismAcrossParallelRuns(t *testing.T) {
	run := func() memdef.Cycle {
		m, _ := buildFor(t, "HIS", cppe, 50)
		return m.Run(0).Cycles
	}
	a := run()
	done := make(chan memdef.Cycle, 4)
	for i := 0; i < 4; i++ {
		go func() {
			m, _ := buildFor(t, "HIS", cppe, 50)
			done <- m.Run(0).Cycles
		}()
	}
	for i := 0; i < 4; i++ {
		if got := <-done; got != a {
			t.Fatalf("parallel run diverged: %d vs %d", got, a)
		}
	}
}
