package uvm

import (
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
)

// TestViewRecentEvictionsCopy: the pattern window hands out a fresh copy —
// a policy scribbling on the returned slice must not perturb driver state —
// ordered oldest-first across ring wraparound.
func TestViewRecentEvictionsCopy(t *testing.T) {
	r := newRig(t, 64*memdef.ChunkPages, evict.NewLRU(), prefetch.NewNone())
	v := r.m.View()

	if got := v.RecentEvictions(); got != nil {
		t.Fatalf("empty window = %v, want nil", got)
	}

	// Overfill the ring so it wraps: records n-WindowSize..n-1 survive.
	n := policy.WindowSize + 7
	for i := 0; i < n; i++ {
		r.m.recordEviction(policy.EvictionRecord{
			Chunk: memdef.ChunkID(i), Touched: memdef.PageBitmap(i), Untouch: i % 17,
		})
	}
	got := v.RecentEvictions()
	if len(got) != policy.WindowSize {
		t.Fatalf("window len = %d, want %d", len(got), policy.WindowSize)
	}
	for i, rec := range got {
		if want := memdef.ChunkID(n - policy.WindowSize + i); rec.Chunk != want {
			t.Fatalf("window[%d].Chunk = %v, want %v (oldest-first)", i, rec.Chunk, want)
		}
	}

	// Mutate the returned slice; a re-read must be unaffected.
	for i := range got {
		got[i] = policy.EvictionRecord{Chunk: 0xdead, Touched: memdef.FullBitmap}
	}
	again := v.RecentEvictions()
	for i, rec := range again {
		if rec.Chunk == 0xdead {
			t.Fatalf("window[%d] aliased the previously returned slice", i)
		}
	}
}

// TestViewRecentEvictionsAllocFree: reading a full window copies it into
// the view's buffer, allocated once, so a policy that reads it on every
// victim selection allocates nothing.
func TestViewRecentEvictionsAllocFree(t *testing.T) {
	r := newRig(t, 64*memdef.ChunkPages, evict.NewLRU(), prefetch.NewNone())
	v := r.m.View()
	for i := 0; i < policy.WindowSize+3; i++ {
		r.m.recordEviction(policy.EvictionRecord{Chunk: memdef.ChunkID(i)})
	}
	read := func() {
		if got := v.RecentEvictions(); len(got) != policy.WindowSize {
			t.Fatalf("window len = %d, want %d", len(got), policy.WindowSize)
		}
	}
	if a := testing.AllocsPerRun(100, read); a != 0 {
		t.Errorf("RecentEvictions: %v allocs per call, want 0", a)
	}
}

// TestViewObservesDriverState: the view's observations track the machine —
// residency, touch bits, page accounting, and simulated time — without the
// policy owning any of that state.
func TestViewObservesDriverState(t *testing.T) {
	r := newRig(t, 64*memdef.ChunkPages, evict.NewLRU(), prefetch.NewNone())
	v := r.m.View()

	page := memdef.PageNum(5)
	if v.Resident(page) {
		t.Fatal("page resident before any access")
	}
	if v.ResidentPages() != 0 || v.MemoryFull() {
		t.Fatalf("fresh machine: ResidentPages=%d MemoryFull=%v", v.ResidentPages(), v.MemoryFull())
	}
	if v.CapacityPages() != 64*memdef.ChunkPages {
		t.Fatalf("CapacityPages = %d", v.CapacityPages())
	}

	r.access(t, 0, page)

	if !v.Resident(page) {
		t.Fatal("page not resident after access")
	}
	if v.ResidentPages() == 0 {
		t.Fatal("ResidentPages still zero after a migration")
	}
	c := page.Chunk()
	if !v.ChunkResident(c).Has(page.Index()) {
		t.Fatalf("ChunkResident(%v) = %v, missing page bit %d", c, v.ChunkResident(c), page.Index())
	}
	if !v.ChunkTouched(c).Has(page.Index()) {
		t.Fatalf("ChunkTouched(%v) = %v, missing page bit %d", c, v.ChunkTouched(c), page.Index())
	}
	if v.ChunkResident(memdef.ChunkID(999)) != 0 || v.ChunkTouched(memdef.ChunkID(999)) != 0 {
		t.Fatal("unknown chunk reports non-empty bitmaps")
	}
	if v.Cycle() == 0 {
		t.Fatal("Cycle did not advance with the engine")
	}
}
