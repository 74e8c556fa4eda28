package prefetch

import (
	"github.com/reproductions/cppe/internal/memdef"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPlanNeverIncludesResidentPages: no prefetcher may request a page the
// residency oracle reports as present (except the faulted page itself, which
// by contract is non-resident when Plan is called — the oracle here never
// claims it).
func TestPlanNeverIncludesResidentPages(t *testing.T) {
	prefetchers := func() []Prefetcher {
		return []Prefetcher{
			NewLocality(), NewDisableOnFull(), NewNone(),
			MustPattern(Scheme1, 0), MustPattern(Scheme2, 0), NewTree(),
		}
	}
	f := func(seed int64, faultRaw uint32, full bool) bool {
		rng := rand.New(rand.NewSource(seed))
		fault := memdef.PageNum(faultRaw % (1 << 20))
		resident := map[memdef.PageNum]bool{}
		// Random residency around the fault's chunk (never the fault).
		c := fault.Chunk()
		for i := 0; i < memdef.ChunkPages; i++ {
			if q := c.Page(i); q != fault && rng.Intn(2) == 0 {
				resident[q] = true
			}
		}
		ctx := Context{
			Resident:   func(p memdef.PageNum) bool { return resident[p] },
			MemoryFull: full,
		}
		for _, pf := range prefetchers() {
			for _, p := range pf.Plan(nil, fault, ctx) {
				if p != fault && resident[p] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPatternPlanSubsetOfRecordedPattern: on a pattern hit, the plan must be
// a subset of the recorded touched pages.
func TestPatternPlanSubsetOfRecordedPattern(t *testing.T) {
	f := func(maskRaw uint16, faultIdx uint8) bool {
		mask := memdef.PageBitmap(maskRaw)
		if mask == 0 {
			return true
		}
		idx := int(faultIdx) % memdef.ChunkPages
		pf := MustPattern(Scheme2, 1)
		pf.OnEvict(3, mask, 16-mask.Count())
		fault := memdef.ChunkID(3).Page(idx)
		plan := pf.Plan(nil, fault, Context{Resident: nothingResident, MemoryFull: true})
		if mask.Has(idx) {
			// Match: every planned page is in the pattern.
			for _, p := range plan {
				if !mask.Has(p.Index()) {
					return false
				}
			}
			return len(plan) == mask.Count()
		}
		// Mismatch: whole chunk.
		return len(plan) == memdef.ChunkPages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPatternBufferBounded: the buffer never exceeds the number of distinct
// chunks ever evicted, and deletion monotonically shrinks it.
func TestPatternBufferBounded(t *testing.T) {
	pf := MustPattern(Scheme1, 1)
	rng := rand.New(rand.NewSource(5))
	distinct := map[memdef.ChunkID]bool{}
	for i := 0; i < 5000; i++ {
		c := memdef.ChunkID(rng.Intn(200))
		switch rng.Intn(3) {
		case 0:
			mask := memdef.PageBitmap(rng.Uint32())
			pf.OnEvict(c, mask, 16-mask.Count())
			if mask != 0 {
				distinct[c] = true
			}
		default:
			idx := rng.Intn(memdef.ChunkPages)
			pf.Plan(nil, c.Page(idx), Context{Resident: nothingResident, MemoryFull: true})
		}
		if pf.Len() > len(distinct) {
			t.Fatalf("buffer %d exceeds distinct recorded %d", pf.Len(), len(distinct))
		}
	}
	if pf.Stats().PeakLen == 0 {
		t.Fatal("peak never recorded")
	}
}
