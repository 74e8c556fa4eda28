package tlb

import (
	"math/rand"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// TestInvalidateChunkEquivalence drives two identically-populated TLBs
// through the same shootdown — one with the batched InvalidateChunk, one with
// a per-page Invalidate loop — and expects identical entry state, identical
// counters, and identical subsequent eviction behaviour. Run over both the
// fully-associative geometry (slot-table probes) and a set-associative one
// (set scans).
func TestInvalidateChunkEquivalence(t *testing.T) {
	geometries := []struct {
		name          string
		entries, ways int
	}{
		{"fully-assoc", 64, 64},
		{"set-assoc", 64, 4},
	}
	for _, g := range geometries {
		g := g
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			batched := New("batched", g.entries, g.ways)
			looped := New("looped", g.entries, g.ways)

			// Shared population: more pages than capacity, spread over a few
			// chunks, so evictions happen and some mask pages are absent.
			var pages []memdef.PageNum
			for i := 0; i < 3*g.entries; i++ {
				p := memdef.ChunkID(rng.Intn(4)).Page(rng.Intn(memdef.ChunkPages))
				pages = append(pages, p)
			}
			for _, p := range pages {
				batched.Insert(p)
				looped.Insert(p)
			}

			victim := memdef.ChunkID(1)
			var mask memdef.PageBitmap
			for idx := 0; idx < memdef.ChunkPages; idx += 3 {
				mask = mask.Set(idx)
			}

			nb := batched.InvalidateChunk(victim, mask)
			nl := 0
			for idx := 0; idx < memdef.ChunkPages; idx++ {
				if mask.Has(idx) && looped.Invalidate(victim.Page(idx)) {
					nl++
				}
			}
			if nb != nl {
				t.Fatalf("dropped %d entries batched vs %d looped", nb, nl)
			}
			if bs, ls := batched.Stats(), looped.Stats(); bs.Shootdowns != ls.Shootdowns {
				t.Fatalf("shootdowns %d batched vs %d looped", bs.Shootdowns, ls.Shootdowns)
			}

			// Same resident set, page by page.
			for c := 0; c < 4; c++ {
				for idx := 0; idx < memdef.ChunkPages; idx++ {
					p := memdef.ChunkID(c).Page(idx)
					if b, l := batched.Contains(p), looped.Contains(p); b != l {
						t.Fatalf("page %v: batched contains=%v, looped contains=%v", p, b, l)
					}
				}
			}

			// Same downstream behaviour: refill both and compare full
			// hit/miss traces (this catches LRU or free-list divergence that
			// the resident-set check alone would miss).
			for i := 0; i < 4*g.entries; i++ {
				p := memdef.ChunkID(rng.Intn(4)).Page(rng.Intn(memdef.ChunkPages))
				if bh, lh := batched.Lookup(p), looped.Lookup(p); bh != lh {
					t.Fatalf("refill lookup %v diverged: batched=%v looped=%v", p, bh, lh)
				}
				batched.Insert(p)
				looped.Insert(p)
			}
			bs, ls := batched.Stats(), looped.Stats()
			if bs.Hits != ls.Hits || bs.Misses != ls.Misses || bs.Evictions != ls.Evictions {
				t.Fatalf("post-refill counters diverged:\nbatched %+v\nlooped  %+v", bs, ls)
			}
		})
	}
}

func TestInvalidateChunkEmptyMask(t *testing.T) {
	tl := New("t", 16, 16)
	tl.Insert(memdef.ChunkID(0).Page(3))
	if n := tl.InvalidateChunk(memdef.ChunkID(0), 0); n != 0 {
		t.Errorf("empty mask dropped %d entries", n)
	}
	if st := tl.Stats(); st.Shootdowns != 0 {
		t.Errorf("empty mask recorded %d shootdowns", st.Shootdowns)
	}
	if !tl.Contains(memdef.ChunkID(0).Page(3)) {
		t.Error("empty mask evicted a resident page")
	}
}
