package uvm

import (
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/xbus"
)

func TestDriverSlotsBoundConcurrentMigrations(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	r.m.cfg.MaxConcurrentMigrations = 2 // informational; slots fixed at New
	// Launch many concurrent faults to distinct chunks: reservations must
	// never exceed slots x chunk while migrations are pending.
	completed := 0
	r.eng.Schedule(0, func() {
		for c := 0; c < 20; c++ {
			r.m.Translate(0, memdef.Access{Addr: memdef.ChunkID(c * 10).FirstPage().Addr()}, func() { completed++ })
		}
	})
	if _, err := r.eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if completed != 20 {
		t.Fatalf("completed = %d", completed)
	}
	// All migrations finished: residency equals 20 chunks.
	if r.m.ResidentPages() != 20*memdef.ChunkPages {
		t.Fatalf("resident = %d", r.m.ResidentPages())
	}
}

func TestReservationsNeverExceedCapacity(t *testing.T) {
	capacity := 4 * memdef.ChunkPages
	r := newRig(t, capacity, evict.NewLRU(), prefetch.NewLocality())
	completed := 0
	r.eng.Schedule(0, func() {
		// 12 simultaneous chunk faults against a 4-chunk memory.
		for c := 0; c < 12; c++ {
			r.m.Translate(0, memdef.Access{Addr: memdef.ChunkID(c * 7).FirstPage().Addr()}, func() { completed++ })
		}
	})
	if _, err := r.eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if completed != 12 {
		t.Fatalf("completed = %d", completed)
	}
	if got := r.m.Stats().PeakResidentPages; got > capacity {
		t.Fatalf("peak residency %d exceeded capacity %d", got, capacity)
	}
}

func TestTreePlanTruncatedToHalfCapacity(t *testing.T) {
	// The tree prefetcher can plan 2 MiB (32 chunks); with a 6-chunk memory
	// the plan must be truncated to half the capacity and still include the
	// faulted page.
	capacity := 6 * memdef.ChunkPages
	r := newRig(t, capacity, evict.NewLRU(), prefetch.NewTree())
	// Warm a 2 MiB region so the tree wants a big expansion.
	for c := 0; c < 12; c++ {
		r.access(t, 0, memdef.ChunkID(c).FirstPage())
	}
	s := r.m.Stats()
	if s.PeakResidentPages > capacity {
		t.Fatalf("peak %d exceeds capacity %d", s.PeakResidentPages, capacity)
	}
	if r.m.Stats().FaultEvents == 0 {
		t.Fatal("no faults")
	}
}

// spanPlanner plans the first span pages of memory for every fault and
// records the migrated plans in the order the driver commits them.
type spanPlanner struct {
	prefetch.None
	span     int
	migrated [][]memdef.PageNum
}

func (p *spanPlanner) Plan(dst []memdef.PageNum, page memdef.PageNum, ctx prefetch.Context) []memdef.PageNum {
	for q := memdef.PageNum(0); q < memdef.PageNum(p.span); q++ {
		dst = append(dst, q)
	}
	return dst
}

func (p *spanPlanner) OnMigrate(pages []memdef.PageNum) {
	p.migrated = append(p.migrated, append([]memdef.PageNum(nil), pages...))
}

// TestPlanTrimKeepsFaultedPageFirst pins the half-capacity trim, done in
// place on the driver's plan buffer: the faulted page first, then the plan's
// other pages in order, up to half the capacity.
func TestPlanTrimKeepsFaultedPageFirst(t *testing.T) {
	const capacity = 4 * memdef.ChunkPages // trims plans to 32 pages
	for _, tc := range []struct {
		name  string
		fault memdef.PageNum
		want  []memdef.PageNum
	}{
		{"fault inside the kept prefix", 20, append([]memdef.PageNum{20}, append(pageRange(0, 20), pageRange(21, 32)...)...)},
		{"fault beyond the kept prefix", 40, append([]memdef.PageNum{40}, pageRange(0, 31)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pf := &spanPlanner{span: 3 * memdef.ChunkPages}
			r := newRig(t, capacity, evict.NewLRU(), pf)
			r.access(t, 0, tc.fault)
			if len(pf.migrated) != 1 {
				t.Fatalf("%d migrations, want 1", len(pf.migrated))
			}
			if got := pf.migrated[0]; !pagesEqual(got, tc.want) {
				t.Fatalf("migrated %v, want %v", got, tc.want)
			}
		})
	}
}

func pageRange(lo, hi memdef.PageNum) []memdef.PageNum {
	var out []memdef.PageNum
	for p := lo; p < hi; p++ {
		out = append(out, p)
	}
	return out
}

func pagesEqual(a, b []memdef.PageNum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestQueuedFaultFindsPageAlreadyResident(t *testing.T) {
	// Two faults to different pages of the same chunk, issued in the same
	// cycle: the second queues, and by the time it is processed the first
	// fault's chunk migration has already covered its page.
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	completed := 0
	r.eng.Schedule(0, func() {
		r.m.Translate(0, memdef.Access{Addr: memdef.ChunkID(0).Page(3).Addr()}, func() { completed++ })
		r.m.Translate(1, memdef.Access{Addr: memdef.ChunkID(0).Page(9).Addr()}, func() { completed++ })
	})
	if _, err := r.eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if completed != 2 {
		t.Fatalf("completed = %d", completed)
	}
	s := r.m.Stats()
	// Only one migration happened (16 pages), though both were fault events
	// (distinct pages cannot merge as waiters-on-the-same-page).
	if s.MigratedPages != memdef.ChunkPages {
		t.Fatalf("migrated = %d", s.MigratedPages)
	}
	if s.MigratedChunks != 1 {
		t.Fatalf("migrations = %d", s.MigratedChunks)
	}
}

func TestPartialChunkRefetchAfterPatternMigration(t *testing.T) {
	// Pattern migration brings only the strided half of a chunk; a later
	// fault on an unmigrated page must migrate the remainder, not panic on
	// double-mapping.
	pf := prefetch.MustPattern(prefetch.Scheme2, 0)
	r := newRig(t, 3*memdef.ChunkPages, evict.NewLRU(), pf)
	// Touch strided pages of chunk 0, fill with chunks 1..3 to evict it.
	for i := 0; i < memdef.ChunkPages; i += 2 {
		r.access(t, 0, memdef.ChunkID(0).Page(i))
	}
	for c := 1; c <= 3; c++ {
		for i := 0; i < memdef.ChunkPages; i++ {
			r.access(t, 0, memdef.ChunkID(c).Page(i))
		}
	}
	if pf.Len() == 0 {
		t.Fatal("pattern not recorded")
	}
	// Strided refetch (pattern match), then an off-pattern page.
	r.access(t, 0, memdef.ChunkID(0).Page(0))
	before := r.m.Stats().MigratedPages
	r.access(t, 0, memdef.ChunkID(0).Page(2)) // already resident: no fault
	if got := r.m.Stats().MigratedPages; got != before {
		t.Fatalf("resident page re-migrated: %d -> %d", before, got)
	}
	r.access(t, 0, memdef.ChunkID(0).Page(1)) // off-pattern: completes chunk
	st := r.m.Stats()
	if st.MigratedPages == before {
		t.Fatal("off-pattern fault migrated nothing")
	}
}

func TestBreakdownAccounting(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	r.access(t, 0, 5) // fault
	r.access(t, 0, 5) // L1 hit
	r.access(t, 1, 5) // L2 hit (other SM)
	r.access(t, 0, 6) // walk (prefetched neighbor)
	bd := r.m.Stats().Breakdown
	if bd.Count[PathFault] != 1 || bd.Count[PathL1Hit] != 1 || bd.Count[PathL2Hit] != 1 || bd.Count[PathWalk] != 1 {
		t.Fatalf("breakdown = %+v", bd)
	}
	// Latency ordering: fault >> walk > L2 > L1.
	if !(bd.AvgLatency(PathFault) > bd.AvgLatency(PathWalk) &&
		bd.AvgLatency(PathWalk) > bd.AvgLatency(PathL2Hit) &&
		bd.AvgLatency(PathL2Hit) > bd.AvgLatency(PathL1Hit)) {
		t.Fatalf("latency ordering violated: %+v", bd)
	}
	if got := bd.Share(PathFault); got != 0.25 {
		t.Fatalf("fault share = %v", got)
	}
}

func TestPathKindStrings(t *testing.T) {
	for p, want := range map[PathKind]string{
		PathL1Hit: "L1-TLB", PathL2Hit: "L2-TLB", PathWalk: "walk", PathFault: "fault",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	if PathKind(99).String() != "?" {
		t.Error("unknown path string")
	}
}

func TestL2TLBPortContention(t *testing.T) {
	// With one L2 port and two simultaneous L1-missing accesses, the second
	// lookup must queue behind the first for the full lookup latency.
	eng := engine.New()
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 2
	cfg.L2TLBPorts = 1
	link := xbus.New(eng, cfg)
	m := New(eng, cfg, link, evict.NewLRU(), prefetch.NewLocality(), &flatMem{eng: eng})
	// Pre-populate: map the pages so lookups hit L2 after a first walk.
	var dones [2]memdef.Cycle
	completed := 0
	eng.Schedule(0, func() {
		m.Translate(0, memdef.Access{Addr: memdef.PageNum(5).Addr()}, func() { completed++ })
	})
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	// Now both SMs miss L1 (SM 1 never saw the page; SM 0 uses a new page
	// from the same chunk) and race for the single port.
	eng.Schedule(0, func() {
		m.Translate(0, memdef.Access{Addr: memdef.PageNum(6).Addr()}, func() { dones[0] = eng.Now() })
		m.Translate(1, memdef.Access{Addr: memdef.PageNum(7).Addr()}, func() { dones[1] = eng.Now() })
	})
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if dones[0] == 0 || dones[1] == 0 {
		t.Fatal("accesses incomplete")
	}
	gap := dones[1] - dones[0]
	if gap < cfg.L2TLBLatency {
		t.Fatalf("second lookup not serialized on the single port: gap %d < %d", gap, cfg.L2TLBLatency)
	}
}
