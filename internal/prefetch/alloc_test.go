package prefetch

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// TestPlanAllocFree gates the fault-time half of every built-in prefetcher:
// with a destination buffer that already has room, Plan appends into it and
// allocates nothing — before memory fills, after, and on both sides of a
// pattern-buffer lookup.
func TestPlanAllocFree(t *testing.T) {
	oddResident := func(p memdef.PageNum) bool { return p%2 == 1 }

	// Chunk 0 left a stride-2 pattern behind, so a fault on page 4 hits the
	// buffer and matches; chunk 1 was never recorded, so page 20 misses.
	pattern := MustPattern(Scheme2, 0)
	var stride2 memdef.PageBitmap
	for i := 0; i < memdef.ChunkPages; i += 2 {
		stride2 = stride2.Set(i)
	}
	pattern.OnEvict(0, stride2, 8)

	// Chunks 1 and 2 of the first 2 MiB region are fetched, so a fault in
	// chunk 3 expands up the tree to the 4-chunk node.
	tree := NewTree()
	tree.OnMigrate([]memdef.PageNum{memdef.ChunkID(1).FirstPage(), memdef.ChunkID(2).FirstPage()})

	cases := []struct {
		name  string
		pf    Prefetcher
		fault memdef.PageNum
		full  bool
		want  int // pages appended
	}{
		{"locality", NewLocality(), 36, false, 8},
		{"locality/full", NewLocality(), 36, true, 8},
		{"disable-on-full", NewDisableOnFull(), 36, false, 8},
		{"disable-on-full/full", NewDisableOnFull(), 36, true, 1},
		{"none", NewNone(), 36, false, 1},
		{"pattern", pattern, 20, false, 8},
		{"pattern/full-miss", pattern, 20, true, 8},
		{"pattern/full-hit", pattern, 4, true, 8},
		{"tree", tree, memdef.ChunkID(3).FirstPage(), false, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := Context{Resident: oddResident, MemoryFull: tc.full}
			dst := make([]memdef.PageNum, 0, 4*memdef.ChunkPages)
			var got []memdef.PageNum
			if a := testing.AllocsPerRun(20, func() {
				got = tc.pf.Plan(dst[:0], tc.fault, ctx)
			}); a != 0 {
				t.Errorf("Plan: %v allocs per call, want 0", a)
			}
			if len(got) != tc.want {
				t.Errorf("Plan appended %d pages, want %d: %v", len(got), tc.want, got)
			}
		})
	}
	if s := pattern.Stats(); s.Matches == 0 || s.Hits != s.Matches {
		t.Errorf("pattern cases must hit and match the buffer: %+v", s)
	}
}
