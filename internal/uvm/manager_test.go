package uvm

import (
	"errors"
	"testing"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/pagetable"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/xbus"
)

// flatMem is a constant-latency stand-in for the L2/DRAM path of the walker.
type flatMem struct {
	eng *engine.Engine
}

func (f *flatMem) Access(a memdef.VirtAddr, k memdef.AccessKind, tag engine.Tag, done func()) {
	f.eng.ScheduleTagged(200, tag, done)
}

type rig struct {
	eng *engine.Engine
	cfg memdef.Config
	m   *Manager
}

func newRig(t *testing.T, capacityPages int, pol evict.Policy, pf prefetch.Prefetcher) *rig {
	t.Helper()
	eng := engine.New()
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 2
	cfg.MemoryPages = capacityPages
	link := xbus.New(eng, cfg)
	m := New(eng, cfg, link, pol, pf, &flatMem{eng: eng})
	return &rig{eng: eng, cfg: cfg, m: m}
}

// access performs one read access and returns its completion cycle.
func (r *rig) access(t *testing.T, sm memdef.SMID, page memdef.PageNum) memdef.Cycle {
	t.Helper()
	var doneAt memdef.Cycle
	done := false
	r.eng.Schedule(0, func() {
		r.m.Translate(sm, memdef.Access{Addr: page.Addr()}, func() {
			doneAt = r.eng.Now()
			done = true
		})
	})
	if _, err := r.eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatalf("access to %v never completed", page)
	}
	return doneAt
}

func (r *rig) write(t *testing.T, sm memdef.SMID, page memdef.PageNum) {
	t.Helper()
	done := false
	r.eng.Schedule(0, func() {
		r.m.Translate(sm, memdef.Access{Addr: page.Addr(), Kind: memdef.Write}, func() { done = true })
	})
	if _, err := r.eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("write never completed")
	}
}

func TestColdAccessFaultsAndMigratesChunk(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	r.access(t, 0, 5)
	s := r.m.Stats()
	if s.FaultEvents != 1 {
		t.Fatalf("fault events = %d", s.FaultEvents)
	}
	if s.MigratedPages != memdef.ChunkPages {
		t.Fatalf("migrated pages = %d, want %d", s.MigratedPages, memdef.ChunkPages)
	}
	if r.m.ResidentPages() != memdef.ChunkPages {
		t.Fatalf("resident = %d", r.m.ResidentPages())
	}
}

func TestSecondAccessHitsTLB(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	r.access(t, 0, 5)
	r.access(t, 0, 5)
	s := r.m.Stats()
	if s.FaultEvents != 1 {
		t.Fatalf("fault events = %d", s.FaultEvents)
	}
	if s.L1THits != 1 {
		t.Fatalf("L1 TLB hits = %d", s.L1THits)
	}
}

func TestPrefetchedNeighborNeedsOnlyWalk(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	r.access(t, 0, 5)
	// Page 6 is in the same chunk: prefetched, mapped, but not in any TLB.
	r.access(t, 0, 6)
	s := r.m.Stats()
	if s.FaultEvents != 1 {
		t.Fatalf("fault events = %d; neighbor should not fault", s.FaultEvents)
	}
	if s.Walks != 2 {
		t.Fatalf("walks = %d, want 2", s.Walks)
	}
}

func TestCrossSMTLBsArePrivate(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	r.access(t, 0, 5)
	r.access(t, 1, 5) // other SM: L1 miss, L2 TLB hit
	s := r.m.Stats()
	if s.L1THits != 0 {
		t.Fatalf("L1 hits = %d; SM1 must not hit SM0's TLB", s.L1THits)
	}
	if s.L2THits != 1 {
		t.Fatalf("L2 hits = %d", s.L2THits)
	}
}

func TestConcurrentFaultsToSamePageMerge(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	completed := 0
	r.eng.Schedule(0, func() {
		r.m.Translate(0, memdef.Access{Addr: memdef.PageNum(5).Addr()}, func() { completed++ })
		r.m.Translate(1, memdef.Access{Addr: memdef.PageNum(5).Addr()}, func() { completed++ })
	})
	if _, err := r.eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if completed != 2 {
		t.Fatalf("completed = %d", completed)
	}
	s := r.m.Stats()
	if s.FaultEvents != 1 || s.MergedFaults != 1 {
		t.Fatalf("faults = %d merged = %d; want 1/1", s.FaultEvents, s.MergedFaults)
	}
	if s.MigratedPages != memdef.ChunkPages {
		t.Fatalf("migrated = %d", s.MigratedPages)
	}
}

func TestFaultLatencyIncludesServiceAndTransfer(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	doneAt := r.access(t, 0, 0)
	service := r.cfg.FaultServiceCycles()
	transfer := r.cfg.TransferCycles(memdef.ChunkBytes, r.cfg.PCIeGBs)
	min := service + transfer
	if doneAt < min {
		t.Fatalf("fault completed at %d, below floor %d", doneAt, min)
	}
	// And it should not be wildly above (walk + TLB latencies only).
	if doneAt > min+2000 {
		t.Fatalf("fault completed at %d, way above floor %d", doneAt, min)
	}
}

func TestCapacityEviction(t *testing.T) {
	r := newRig(t, 2*memdef.ChunkPages, evict.NewLRU(), prefetch.NewLocality())
	r.access(t, 0, memdef.ChunkID(0).FirstPage())
	r.access(t, 0, memdef.ChunkID(1).FirstPage())
	if r.m.Stats().EvictedChunks != 0 {
		t.Fatal("premature eviction")
	}
	if !r.m.MemoryFull() {
		t.Fatal("memory should be full after two chunks in a 2-chunk capacity")
	}
	r.access(t, 0, memdef.ChunkID(2).FirstPage())
	s := r.m.Stats()
	if s.EvictedChunks != 1 || s.EvictedPages != memdef.ChunkPages {
		t.Fatalf("evictions = %+v", s)
	}
	if r.m.ResidentPages() != 2*memdef.ChunkPages {
		t.Fatalf("resident = %d", r.m.ResidentPages())
	}
}

func TestEvictionShootsDownTLBs(t *testing.T) {
	r := newRig(t, 2*memdef.ChunkPages, evict.NewLRU(), prefetch.NewLocality())
	p0 := memdef.ChunkID(0).FirstPage()
	r.access(t, 0, p0)
	r.access(t, 0, memdef.ChunkID(1).FirstPage())
	r.access(t, 0, memdef.ChunkID(2).FirstPage()) // evicts chunk 0 (LRU)
	// Re-access p0: must fault again, not hit a stale TLB entry.
	r.access(t, 0, p0)
	s := r.m.Stats()
	if s.FaultEvents != 4 {
		t.Fatalf("fault events = %d, want 4 (stale TLB entry served?)", s.FaultEvents)
	}
}

func TestUntouchLevelReportedToPrefetcher(t *testing.T) {
	pf := prefetch.MustPattern(prefetch.Scheme2, 0)
	r := newRig(t, 2*memdef.ChunkPages, evict.NewLRU(), pf)
	// Touch only page 0 of chunk 0: untouch level 15 >= 8, recorded.
	r.access(t, 0, memdef.ChunkID(0).FirstPage())
	r.access(t, 0, memdef.ChunkID(1).FirstPage())
	r.access(t, 0, memdef.ChunkID(2).FirstPage()) // evicts chunk 0
	if pf.Len() != 1 {
		t.Fatalf("pattern buffer len = %d, want 1", pf.Len())
	}
}

func TestFullyTouchedChunkNotRecorded(t *testing.T) {
	pf := prefetch.MustPattern(prefetch.Scheme2, 0)
	r := newRig(t, 2*memdef.ChunkPages, evict.NewLRU(), pf)
	for i := 0; i < memdef.ChunkPages; i++ {
		r.access(t, 0, memdef.ChunkID(0).Page(i))
	}
	r.access(t, 0, memdef.ChunkID(1).FirstPage())
	r.access(t, 0, memdef.ChunkID(2).FirstPage()) // evicts chunk 0, untouch 0
	if pf.Len() != 0 {
		t.Fatalf("pattern buffer len = %d, want 0", pf.Len())
	}
}

func TestDirtyWriteBack(t *testing.T) {
	r := newRig(t, 2*memdef.ChunkPages, evict.NewLRU(), prefetch.NewLocality())
	r.write(t, 0, memdef.ChunkID(0).FirstPage())
	r.access(t, 0, memdef.ChunkID(1).FirstPage())
	r.access(t, 0, memdef.ChunkID(2).FirstPage()) // evicts dirty chunk 0
	s := r.m.Stats()
	if s.DirtyPagesWrittenBack != 1 {
		t.Fatalf("dirty write-backs = %d, want 1", s.DirtyPagesWrittenBack)
	}
}

func TestDisableOnFullMigratesSinglePages(t *testing.T) {
	r := newRig(t, 2*memdef.ChunkPages, evict.NewLRU(), prefetch.NewDisableOnFull())
	r.access(t, 0, memdef.ChunkID(0).FirstPage())
	r.access(t, 0, memdef.ChunkID(1).FirstPage())
	before := r.m.Stats().MigratedPages
	r.access(t, 0, memdef.ChunkID(2).FirstPage())
	delta := r.m.Stats().MigratedPages - before
	if delta != 1 {
		t.Fatalf("post-full migration = %d pages, want 1", delta)
	}
}

func TestPeakResidencyTracksFootprint(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	for c := 0; c < 5; c++ {
		r.access(t, 0, memdef.ChunkID(c).FirstPage())
	}
	if got := r.m.Stats().PeakResidentPages; got != 5*memdef.ChunkPages {
		t.Fatalf("peak = %d", got)
	}
}

func TestThrashAbort(t *testing.T) {
	r := newRig(t, 2*memdef.ChunkPages, evict.NewLRU(), prefetch.NewLocality())
	r.cfg.ThrashAbortFactor = 2
	r.m.cfg.ThrashAbortFactor = 2
	r.m.SetFootprint(3 * memdef.ChunkPages)
	// Cycle over 3 chunks with capacity 2: every access evicts.
	for i := 0; i < 40 && !r.m.Aborted(); i++ {
		r.access(t, 0, memdef.ChunkID(i%3).FirstPage())
	}
	if !r.m.Aborted() {
		t.Fatal("thrash detector never fired")
	}
}

func TestMHPEIntegrationWithManager(t *testing.T) {
	// End-to-end: MHPE + pattern prefetcher against a cyclic (thrashing)
	// chunk pattern must beat LRU + locality on fault count.
	run := func(pol evict.Policy, pf prefetch.Prefetcher) uint64 {
		r := newRig(t, 8*memdef.ChunkPages, pol, pf)
		// Cyclic sweeps over 10 chunks.
		for round := 0; round < 6; round++ {
			for c := 0; c < 10; c++ {
				r.access(t, 0, memdef.ChunkID(c).FirstPage())
				r.access(t, 0, memdef.ChunkID(c).Page(8))
			}
		}
		return r.m.Stats().FaultEvents
	}
	lruFaults := run(evict.NewLRU(), prefetch.NewLocality())
	mhpeFaults := run(evict.NewMHPE(evict.MHPEOptions{}), prefetch.MustPattern(prefetch.Scheme2, 0))
	if mhpeFaults >= lruFaults {
		t.Fatalf("MHPE faults (%d) not better than LRU (%d) on cyclic pattern", mhpeFaults, lruFaults)
	}
}

// TestIntegrityFailStopOnDoubleMap corrupts the page table so an incoming
// migration commit double-maps a page, and asserts the run fail-stops with
// the pagetable sentinel surfaced through Failure instead of panicking.
func TestIntegrityFailStopOnDoubleMap(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	// Corrupt: page 1 of chunk 0 is mapped in the page table but not marked
	// resident, so the locality plan for a fault on page 0 still includes it.
	if err := r.m.table.Map(memdef.ChunkID(0).Page(1), 999); err != nil {
		t.Fatal(err)
	}
	r.eng.Schedule(0, func() {
		r.m.Translate(0, memdef.Access{Addr: memdef.ChunkID(0).Page(0).Addr()}, func() {})
	})
	if _, err := r.eng.Run(r.m.Aborted); err != nil {
		t.Fatal(err)
	}
	if !r.m.Aborted() {
		t.Fatal("double map did not abort the run")
	}
	if err := r.m.Failure(); !errors.Is(err, pagetable.ErrDoubleMap) {
		t.Fatalf("Failure() = %v, want ErrDoubleMap", err)
	}
}

// TestIntegrityFailStopIsAuditClass repeats the double-map fail-stop with an
// auditor attached: the failure must surface as a structured capacity-class
// *audit.IntegrityError naming the pagetable-map check.
func TestIntegrityFailStopIsAuditClass(t *testing.T) {
	r := newRig(t, 0, evict.NewLRU(), prefetch.NewLocality())
	r.m.AttachAuditor(audit.New())
	if err := r.m.table.Map(memdef.ChunkID(0).Page(1), 999); err != nil {
		t.Fatal(err)
	}
	r.eng.Schedule(0, func() {
		r.m.Translate(0, memdef.Access{Addr: memdef.ChunkID(0).Page(0).Addr()}, func() {})
	})
	if _, err := r.eng.Run(r.m.Aborted); err != nil {
		t.Fatal(err)
	}
	var ierr *audit.IntegrityError
	if err := r.m.Failure(); !errors.As(err, &ierr) {
		t.Fatalf("Failure() = %v, want *audit.IntegrityError", err)
	}
	if ierr.Class != audit.ClassCapacity || ierr.Check != "pagetable-map" || ierr.Trigger != "migration-commit" {
		t.Fatalf("integrity error = %+v", ierr)
	}
}

// TestResetTruncatesRegistries: a reset manager's translation, migration and
// chunk registries restart empty, so a recycled machine fills them to the
// lengths a new one reaches — same IDs, and no growth from run to run.
// Results alone cannot show this: a registry that is not truncated only hands
// out higher IDs.
func TestResetTruncatesRegistries(t *testing.T) {
	capacity := 4 * memdef.ChunkPages
	drive := func(r *rig) {
		t.Helper()
		r.eng.Schedule(0, func() {
			for c := 0; c < 12; c++ {
				r.m.Translate(0, memdef.Access{Addr: memdef.ChunkID(c * 7).FirstPage().Addr()}, func() {})
			}
		})
		if _, err := r.eng.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
	fresh := newRig(t, capacity, evict.NewLRU(), prefetch.NewLocality())
	drive(fresh)
	recycled := newRig(t, capacity, evict.NewLRU(), prefetch.NewLocality())
	drive(recycled)
	recycled.eng.Reset()
	recycled.m.link.Reset()
	recycled.m.Reset(recycled.cfg, evict.NewLRU(), prefetch.NewLocality())
	drive(recycled)
	got := [3]int{len(recycled.m.xlats), len(recycled.m.migs), recycled.m.chunkUsed}
	want := [3]int{len(fresh.m.xlats), len(fresh.m.migs), fresh.m.chunkUsed}
	if got != want {
		t.Errorf("recycled registries (xlats, migs, chunks) = %v, a new manager's = %v", got, want)
	}
}
