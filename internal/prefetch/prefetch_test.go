package prefetch

import (
	"errors"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

func nothingResident(memdef.PageNum) bool { return false }

func pagesEqual(got []memdef.PageNum, want ...memdef.PageNum) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func TestLocalityPlansWholeChunk(t *testing.T) {
	l := NewLocality()
	// Fault in the middle of chunk 2 (pages 32..47).
	got := l.Plan(nil, 37, Context{Resident: nothingResident})
	if len(got) != memdef.ChunkPages {
		t.Fatalf("plan = %v", got)
	}
	for i, p := range got {
		if p != memdef.PageNum(32+i) {
			t.Fatalf("plan = %v, want pages 32..47 ascending", got)
		}
	}
}

func TestLocalitySkipsResident(t *testing.T) {
	l := NewLocality()
	resident := func(p memdef.PageNum) bool { return p%2 == 0 && p != 36 }
	got := l.Plan(nil, 36, Context{Resident: resident})
	// Faulted page 36 always included; odd pages included; other evens not.
	found := false
	for _, p := range got {
		if p == 36 {
			found = true
		}
		if p != 36 && p%2 == 0 {
			t.Fatalf("plan contains resident page %v", p)
		}
	}
	if !found {
		t.Fatal("faulted page missing from plan")
	}
	if len(got) != 9 { // 8 odd pages + page 36
		t.Fatalf("plan size = %d: %v", len(got), got)
	}
}

func TestLocalityIgnoresMemoryFull(t *testing.T) {
	l := NewLocality()
	got := l.Plan(nil, 5, Context{Resident: nothingResident, MemoryFull: true})
	if len(got) != memdef.ChunkPages {
		t.Fatalf("baseline must keep prefetching when full; plan = %v", got)
	}
}

func TestDisableOnFull(t *testing.T) {
	d := NewDisableOnFull()
	before := d.Plan(nil, 5, Context{Resident: nothingResident})
	if len(before) != memdef.ChunkPages {
		t.Fatalf("pre-full plan = %v", before)
	}
	after := d.Plan(nil, 5, Context{Resident: nothingResident, MemoryFull: true})
	if !pagesEqual(after, 5) {
		t.Fatalf("post-full plan = %v, want just the faulted page", after)
	}
}

func TestNonePlansSinglePage(t *testing.T) {
	n := NewNone()
	if got := n.Plan(nil, 123, Context{Resident: nothingResident}); !pagesEqual(got, 123) {
		t.Fatalf("plan = %v", got)
	}
}

func TestPatternBadScheme(t *testing.T) {
	if _, err := NewPattern(DeletionScheme(9), 0); !errors.Is(err, ErrUnknownScheme) {
		t.Errorf("NewPattern bad scheme error = %v, want ErrUnknownScheme", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustPattern with bad scheme did not panic")
		}
	}()
	MustPattern(DeletionScheme(9), 0)
}

func TestPatternBehavesLikeLocalityBeforeFull(t *testing.T) {
	pf := MustPattern(Scheme2, 0)
	got := pf.Plan(nil, 5, Context{Resident: nothingResident})
	if len(got) != memdef.ChunkPages {
		t.Fatalf("plan = %v", got)
	}
}

func TestPatternRecordsOnlySparseChunks(t *testing.T) {
	pf := MustPattern(Scheme2, 0)
	pf.OnEvict(1, memdef.PageBitmap(0x00FF), 8) // untouch 8: recorded
	pf.OnEvict(2, memdef.PageBitmap(0x7FFF), 1) // untouch 1: not recorded
	pf.OnEvict(3, 0, 16)                        // nothing touched: not recorded
	if pf.Len() != 1 {
		t.Fatalf("buffer len = %d, want 1", pf.Len())
	}
	if s := pf.Stats(); s.Recorded != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPatternMatchPrefetchesOnlyPattern(t *testing.T) {
	pf := MustPattern(Scheme2, 0)
	// Chunk 0, stride-2 pattern: pages 0,2,4,...,14 touched.
	var touched memdef.PageBitmap
	for i := 0; i < memdef.ChunkPages; i += 2 {
		touched = touched.Set(i)
	}
	pf.OnEvict(0, touched, 8)
	got := pf.Plan(nil, 4, Context{Resident: nothingResident, MemoryFull: true})
	if !pagesEqual(got, 0, 2, 4, 6, 8, 10, 12, 14) {
		t.Fatalf("plan = %v, want the stride-2 pages", got)
	}
	s := pf.Stats()
	if s.Hits != 1 || s.Matches != 1 || s.Mismatches != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPatternMismatchMigratesWholeChunk(t *testing.T) {
	pf := MustPattern(Scheme1, 0)
	var touched memdef.PageBitmap
	for i := 0; i < memdef.ChunkPages; i += 2 {
		touched = touched.Set(i)
	}
	pf.OnEvict(0, touched, 8)
	// Page 5 does not match the stride-2 pattern.
	got := pf.Plan(nil, 5, Context{Resident: nothingResident, MemoryFull: true})
	if len(got) != memdef.ChunkPages {
		t.Fatalf("mismatch plan = %v, want whole chunk", got)
	}
}

// TestPatternFig6Schemes reproduces the Fig. 6 example exactly: a chunk with
// touched pattern 0101 (pages 1 and 3 touched, counting from page index 0).
func TestPatternFig6Schemes(t *testing.T) {
	pattern := memdef.PageBitmap(0).Set(1).Set(3)

	// Access stream (1): fault on page 2 — mismatch. Both schemes delete.
	for _, scheme := range []DeletionScheme{Scheme1, Scheme2} {
		pf := MustPattern(scheme, 1)
		pf.OnEvict(0, pattern, 14)
		pf.Plan(nil, 2, Context{Resident: nothingResident, MemoryFull: true})
		if pf.Len() != 0 {
			t.Errorf("scheme %d: entry survived first-lookup mismatch", scheme)
		}
	}

	// Access stream (2): fault on page 1 (match), then page 2 (mismatch).
	// Scheme-1 deletes on the mismatch; Scheme-2 keeps the entry because the
	// first lookup matched.
	run := func(scheme DeletionScheme) *Pattern {
		pf := MustPattern(scheme, 1)
		pf.OnEvict(0, pattern, 14)
		resident := map[memdef.PageNum]bool{}
		ctx := Context{
			Resident:   func(p memdef.PageNum) bool { return resident[p] },
			MemoryFull: true,
		}
		for _, p := range pf.Plan(nil, 1, ctx) {
			resident[p] = true
		}
		// First fault migrated pages 1 and 3 only.
		if !resident[1] || !resident[3] || resident[2] {
			t.Fatalf("scheme %d: first fault migrated wrong set", scheme)
		}
		got := pf.Plan(nil, 2, ctx)
		// Whole chunk except the already-resident 1 and 3.
		for _, p := range got {
			if p == 1 || p == 3 {
				t.Fatalf("scheme %d: replanned resident page %v", scheme, p)
			}
		}
		if len(got) != memdef.ChunkPages-2 {
			t.Fatalf("scheme %d: second plan = %v", scheme, got)
		}
		return pf
	}
	if pf := run(Scheme1); pf.Len() != 0 {
		t.Error("Scheme-1 kept the entry after a mismatch")
	}
	if pf := run(Scheme2); pf.Len() != 1 {
		t.Error("Scheme-2 deleted the entry despite a prior match")
	}
}

func TestPatternReRecordingOverwrites(t *testing.T) {
	pf := MustPattern(Scheme2, 0)
	a := memdef.PageBitmap(0).Set(0)
	b := memdef.PageBitmap(0).Set(1)
	pf.OnEvict(0, a, 15)
	pf.OnEvict(0, b, 15)
	if pf.Len() != 1 {
		t.Fatalf("len = %d", pf.Len())
	}
	got := pf.Plan(nil, memdef.PageNum(1), Context{Resident: nothingResident, MemoryFull: true})
	if !pagesEqual(got, 1) {
		t.Fatalf("plan = %v; stale pattern used", got)
	}
}

func TestTreePrefetchesFaultedChunkWhenColdRegion(t *testing.T) {
	tr := NewTree()
	got := tr.Plan(nil, 0, Context{Resident: nothingResident})
	if len(got) != memdef.ChunkPages {
		t.Fatalf("cold plan = %v", got)
	}
}

func TestTreeMajorityExpansion(t *testing.T) {
	tr := NewTree()
	// Chunk 0 resident; faulting into chunk 1 makes the 2-chunk node fully
	// fetched (2/2 > 1/2 requires strictly more than half: 2 > 1 yes), and
	// the 4-chunk node has 2 of 4 -> not expanded.
	tr.OnMigrate([]memdef.PageNum{0}) // chunk 0 fetched
	got := tr.Plan(nil, memdef.ChunkID(1).FirstPage(), Context{Resident: func(p memdef.PageNum) bool {
		return p.Chunk() == 0
	}})
	// Plan = chunk 1 only (16 pages): node of 2 is majority-fetched only
	// after planning chunk 1; expansion adds nothing new (chunk 0 resident).
	if len(got) != memdef.ChunkPages {
		t.Fatalf("plan = %v", got)
	}
	// Now chunks 0,1 fetched; fault into chunk 2: node {2,3} has 1/2 (not
	// majority); node {0,1,2,3} has 3/4 -> expand to chunk 3 as well.
	tr.OnMigrate([]memdef.PageNum{memdef.ChunkID(1).FirstPage()})
	got = tr.Plan(nil, memdef.ChunkID(2).FirstPage(), Context{Resident: func(p memdef.PageNum) bool {
		return p.Chunk() <= 1
	}})
	if len(got) != 2*memdef.ChunkPages {
		t.Fatalf("expansion plan covers %d pages, want %d (chunks 2 and 3)", len(got), 2*memdef.ChunkPages)
	}
}

func TestTreeEvictionShrinksState(t *testing.T) {
	tr := NewTree()
	tr.OnMigrate([]memdef.PageNum{0, 16})
	tr.OnEvict(0, 0, 0)
	if tr.fetched[0] {
		t.Fatal("evicted chunk still marked fetched")
	}
	if !tr.fetched[1] {
		t.Fatal("unrelated chunk forgotten")
	}
}

func TestPrefetcherNames(t *testing.T) {
	cases := map[string]Prefetcher{
		"locality":        NewLocality(),
		"disable-on-full": NewDisableOnFull(),
		"none":            NewNone(),
		"pattern-s1":      MustPattern(Scheme1, 0),
		"pattern-s2":      MustPattern(Scheme2, 0),
		"tree":            NewTree(),
	}
	for want, p := range cases {
		if p.Name() != want {
			t.Errorf("name = %q, want %q", p.Name(), want)
		}
	}
}

func TestPlansAreAscendingAndContainFault(t *testing.T) {
	prefetchers := []Prefetcher{
		NewLocality(), NewDisableOnFull(), NewNone(),
		MustPattern(Scheme1, 0), MustPattern(Scheme2, 0), NewTree(),
	}
	for _, pf := range prefetchers {
		for _, fault := range []memdef.PageNum{0, 7, 31, 100, 1023} {
			for _, full := range []bool{false, true} {
				got := pf.Plan(nil, fault, Context{Resident: nothingResident, MemoryFull: full})
				if len(got) == 0 {
					t.Fatalf("%s: empty plan", pf.Name())
				}
				hasFault := false
				for i, p := range got {
					if p == fault {
						hasFault = true
					}
					if i > 0 && got[i-1] >= p {
						t.Fatalf("%s: plan not strictly ascending: %v", pf.Name(), got)
					}
				}
				if !hasFault {
					t.Fatalf("%s: faulted page missing: %v", pf.Name(), got)
				}
			}
		}
	}
}
