package workload

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

func TestRegistryComplete(t *testing.T) {
	all := All()
	if len(all) != 23 {
		t.Fatalf("registry has %d benchmarks, want 23 (Table II)", len(all))
	}
	counts := map[PatternType]int{}
	seen := map[string]bool{}
	for _, b := range all {
		if seen[b.Abbr] {
			t.Fatalf("duplicate abbreviation %s", b.Abbr)
		}
		seen[b.Abbr] = true
		counts[b.Type]++
		if b.FootprintMB <= 0 {
			t.Errorf("%s: footprint %v", b.Abbr, b.FootprintMB)
		}
		if b.Suite != "Rodinia" && b.Suite != "Parboil" && b.Suite != "Polybench" {
			t.Errorf("%s: unknown suite %q", b.Abbr, b.Suite)
		}
	}
	// Table II type populations.
	want := map[PatternType]int{TypeI: 4, TypeII: 4, TypeIII: 5, TypeIV: 4, TypeV: 4, TypeVI: 2}
	for ty, n := range want {
		if counts[ty] != n {
			t.Errorf("%v has %d benchmarks, want %d", ty, counts[ty], n)
		}
	}
}

func TestByAbbr(t *testing.T) {
	b, ok := ByAbbr("SRD")
	if !ok || b.Name != "srad_v2" || b.Type != TypeIV {
		t.Fatalf("ByAbbr(SRD) = %+v, %v", b, ok)
	}
	if _, ok := ByAbbr("NOPE"); ok {
		t.Fatal("found nonexistent benchmark")
	}
}

func TestByType(t *testing.T) {
	vi := ByType(TypeVI)
	if len(vi) != 2 || vi[0].Abbr != "B+T" || vi[1].Abbr != "HYB" {
		t.Fatalf("ByType(VI) = %+v", vi)
	}
}

func TestFootprintPagesChunkAligned(t *testing.T) {
	for _, b := range All() {
		for _, scale := range []float64{0.05, 0.25, 1.0} {
			pages := b.FootprintPages(scale)
			if pages%memdef.ChunkPages != 0 {
				t.Errorf("%s at scale %v: %d pages not chunk aligned", b.Abbr, scale, pages)
			}
			if pages < 4*memdef.ChunkPages {
				t.Errorf("%s at scale %v: footprint too small (%d)", b.Abbr, scale, pages)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	b, _ := ByAbbr("BFS") // uses shuffling: the hardest determinism case
	opt := Options{Scale: 0.05, Warps: 8}
	a := b.Generate(opt)
	c := b.Generate(opt)
	if a.Accesses != c.Accesses || a.TouchedPages != c.TouchedPages {
		t.Fatalf("nondeterministic: %+v vs %+v", a, c)
	}
	for w := range a.Warps {
		if len(a.Warps[w]) != len(c.Warps[w]) {
			t.Fatalf("warp %d lengths differ", w)
		}
		for i := range a.Warps[w] {
			if a.Warps[w][i] != c.Warps[w][i] {
				t.Fatalf("warp %d diverges at %d", w, i)
			}
		}
	}
}

func TestSeedChangesShuffledTraces(t *testing.T) {
	b, _ := ByAbbr("BFS")
	a := b.Generate(Options{Scale: 0.05, Warps: 4, Seed: 1})
	c := b.Generate(Options{Scale: 0.05, Warps: 4, Seed: 2})
	same := true
	for w := range a.Warps {
		for i := range a.Warps[w] {
			if i < len(c.Warps[w]) && a.Warps[w][i] != c.Warps[w][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical BFS traces")
	}
}

func TestAllBenchmarksGenerate(t *testing.T) {
	for _, b := range All() {
		tr := b.Generate(Options{Scale: 0.03, Warps: 8})
		if tr.Accesses == 0 {
			t.Errorf("%s: empty trace", b.Abbr)
		}
		if len(tr.Warps) != 8 {
			t.Errorf("%s: %d warps", b.Abbr, len(tr.Warps))
		}
		if tr.TouchedPages == 0 || tr.TouchedPages > tr.FootprintPages {
			t.Errorf("%s: touched %d of %d", b.Abbr, tr.TouchedPages, tr.FootprintPages)
		}
		// Every access must fall inside the footprint.
		limit := memdef.PageNum(tr.FootprintPages)
		for _, warp := range tr.Warps {
			for _, op := range warp {
				a := op.Access()
				if a.Addr.Page() >= limit {
					t.Fatalf("%s: access %v beyond footprint %d pages", b.Abbr, a.Addr, tr.FootprintPages)
				}
			}
		}
	}
}

func TestStridedMembership(t *testing.T) {
	// MVT/BIC are pure strided; NW/HIS additionally touch one off-pattern
	// page per chunk on rare passes (the Fig. 6/7 mismatch source).
	for _, abbr := range []string{"NW", "MVT", "BIC", "HIS"} {
		b, _ := ByAbbr(abbr)
		tr := b.Generate(Options{Scale: 0.05, Warps: 4})
		stride := b.p.stride
		offStride := 0
		total := 0
		for _, warp := range tr.Warps {
			for _, op := range warp {
				a := op.Access()
				total++
				if a.Addr.Page().Index()%stride != 0 {
					offStride++
					if b.p.rareEvery == 0 {
						t.Fatalf("%s: access to off-stride page %v (stride %d)", abbr, a.Addr.Page(), stride)
					}
					if a.Addr.Page().Index() != 1 {
						t.Fatalf("%s: off-stride access must hit the rare page (index 1), got %v", abbr, a.Addr.Page())
					}
				}
			}
		}
		if b.p.rareEvery > 0 {
			if offStride == 0 {
				t.Fatalf("%s: no rare off-pattern accesses generated", abbr)
			}
			if offStride*5 > total {
				t.Fatalf("%s: rare accesses too common: %d of %d", abbr, offStride, total)
			}
		}
		// The touched fraction should be near 1/stride of the footprint
		// (plus at most one rare page per chunk).
		frac := float64(tr.TouchedPages) / float64(tr.FootprintPages)
		want := 1.0 / float64(stride)
		if b.p.rareEvery > 0 {
			want += 1.0 / memdef.ChunkPages
		}
		if frac < want*0.8 || frac > want*1.2 {
			t.Fatalf("%s: touched fraction %.3f, want ~%.3f", abbr, frac, want)
		}
	}
}

func TestSubsetTouchingVariesByPass(t *testing.T) {
	// BFS/HWL chunks fill slowly: different passes touch different member
	// subsets, so single-warp per-pass page sets must differ.
	for _, abbr := range []string{"BFS", "HWL"} {
		b, _ := ByAbbr(abbr)
		tr := b.Generate(Options{Scale: 0.05, Warps: 1})
		if len(tr.Warps[0]) == 0 {
			t.Fatalf("%s: empty trace", abbr)
		}
		// Split the single warp's accesses into thirds (approximating the
		// passes) and compare their page sets.
		third := len(tr.Warps[0]) / 3
		set := func(lo, hi int) map[memdef.PageNum]bool {
			out := map[memdef.PageNum]bool{}
			for _, op := range tr.Warps[0][lo:hi] {
				a := op.Access()
				out[a.Addr.Page()] = true
			}
			return out
		}
		a, c := set(0, third), set(2*third, len(tr.Warps[0]))
		diff := 0
		for p := range a {
			if !c[p] {
				diff++
			}
		}
		if diff == 0 {
			t.Errorf("%s: passes touch identical page sets; subset touching broken", abbr)
		}
	}
}

func TestDenseBenchmarksTouchEverything(t *testing.T) {
	for _, abbr := range []string{"HOT", "2DC", "MRQ", "STN"} {
		b, _ := ByAbbr(abbr)
		tr := b.Generate(Options{Scale: 0.05, Warps: 8})
		if tr.TouchedPages != tr.FootprintPages {
			t.Errorf("%s: touched %d of %d pages", abbr, tr.TouchedPages, tr.FootprintPages)
		}
	}
}

func TestSparseBenchmarksLeaveUntouchedPages(t *testing.T) {
	for _, abbr := range []string{"B+T", "BFS", "SPV", "DWT"} {
		b, _ := ByAbbr(abbr)
		tr := b.Generate(Options{Scale: 0.05, Warps: 8})
		if tr.TouchedPages >= tr.FootprintPages {
			t.Errorf("%s: no untouched pages (touched %d of %d)", abbr, tr.TouchedPages, tr.FootprintPages)
		}
	}
}

func TestEveryChunkHasAMember(t *testing.T) {
	for _, b := range All() {
		tr := b.Generate(Options{Scale: 0.05, Warps: 8})
		touched := map[memdef.ChunkID]bool{}
		for _, warp := range tr.Warps {
			for _, op := range warp {
				a := op.Access()
				touched[a.Addr.Chunk()] = true
			}
		}
		chunks := tr.FootprintPages / memdef.ChunkPages
		if len(touched) != chunks {
			t.Errorf("%s: only %d of %d chunks touched", b.Abbr, len(touched), chunks)
		}
	}
}

func TestTracesContainWrites(t *testing.T) {
	b, _ := ByAbbr("HOT")
	tr := b.Generate(Options{Scale: 0.05, Warps: 8})
	writes := 0
	for _, warp := range tr.Warps {
		for _, op := range warp {
			a := op.Access()
			if a.Kind == memdef.Write {
				writes++
			}
		}
	}
	if writes == 0 {
		t.Fatal("no write accesses generated")
	}
	if writes*2 > tr.Accesses {
		t.Fatalf("too many writes: %d of %d", writes, tr.Accesses)
	}
}

func TestAccessVolumeBounded(t *testing.T) {
	// Guard against generator blowups: accesses should stay within a small
	// multiple of footprint x passes x accessesPerPage.
	for _, b := range All() {
		tr := b.Generate(Options{Scale: 0.05, Warps: 16})
		bound := tr.FootprintPages * b.p.passes * 2 * 8 // generous 8x slack
		if tr.Accesses > bound {
			t.Errorf("%s: %d accesses exceed bound %d", b.Abbr, tr.Accesses, bound)
		}
	}
}

func TestTableII(t *testing.T) {
	rows := TableII(0.25)
	if len(rows) != 23 {
		t.Fatalf("Table II rows = %d", len(rows))
	}
	if rows[0].Abbr != "HOT" || rows[len(rows)-1].Abbr != "HYB" {
		t.Fatalf("Table II order wrong: %s..%s", rows[0].Abbr, rows[len(rows)-1].Abbr)
	}
	for _, r := range rows {
		if r.ScaledPages <= 0 {
			t.Errorf("%s: scaled pages %d", r.Abbr, r.ScaledPages)
		}
	}
}

func TestPatternTypeStrings(t *testing.T) {
	if TypeI.String() == "" || TypeVI.Short() != "VI" {
		t.Fatal("pattern type strings")
	}
	if PatternType(9).String() == "" {
		t.Fatal("unknown type must still print")
	}
}

func TestSortedAbbrs(t *testing.T) {
	s := SortedAbbrs()
	if len(s) != 23 {
		t.Fatalf("len = %d", len(s))
	}
	for i := 1; i < len(s); i++ {
		if s[i-1] >= s[i] {
			t.Fatal("not sorted")
		}
	}
}

func TestWarpLoadBalanced(t *testing.T) {
	// The block distributor must spread a pass's work evenly: no warp may
	// carry more than ~3x the mean access count (the thrash archetype is
	// perfectly balanced; sparse archetypes have small imbalance).
	for _, b := range All() {
		tr := b.Generate(Options{Scale: 0.05, Warps: 16})
		mean := tr.Accesses / 16
		if mean == 0 {
			continue
		}
		for w, warp := range tr.Warps {
			if len(warp) > 3*mean {
				t.Errorf("%s: warp %d has %d accesses, mean %d", b.Abbr, w, len(warp), mean)
			}
		}
	}
}

func TestGlobalOrderIsBandLimited(t *testing.T) {
	// Reconstruct the approximate global order by interleaving warps
	// round-robin block by block; consecutive accesses of the thrash
	// archetype must stay within a narrow page band, the property that
	// preserves global reuse distances under concurrency.
	b, _ := ByAbbr("MRQ") // dense thrash: easiest to reason about
	const warps = 8
	tr := b.Generate(Options{Scale: 0.05, Warps: warps})
	pos := make([]int, warps)
	var prev memdef.PageNum
	first := true
	maxJump := 0
	steps := 0
	for {
		progressed := false
		for w := 0; w < warps; w++ {
			for k := 0; k < blockPages*AccPerPageForTest && pos[w] < len(tr.Warps[w]); k++ {
				p := tr.Warps[w][pos[w]].Access().Addr.Page()
				pos[w]++
				progressed = true
				if !first {
					jump := int(p) - int(prev)
					if jump < 0 {
						jump = -jump
					}
					// Wraparound between passes is expected; ignore jumps
					// spanning most of the footprint.
					if jump < tr.FootprintPages/2 && jump > maxJump {
						maxJump = jump
					}
				}
				prev, first = p, false
				steps++
			}
		}
		if !progressed {
			break
		}
	}
	band := warps * blockPages * 4 // generous slack over the ideal band
	if maxJump > band {
		t.Fatalf("max intra-pass jump %d pages exceeds band %d", maxJump, band)
	}
	if steps == 0 {
		t.Fatal("no accesses")
	}
}
