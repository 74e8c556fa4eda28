package workload

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// layoutGolden pins every benchmark's trace at scale 0.05 with default
// options: fingerprint, access count and touched-page count. Every
// simulation result and checkpoint depends on these traces, so generation
// must reproduce them bit for bit.
var layoutGolden = []struct {
	abbr        string
	fingerprint uint64
	accesses    int
	touched     int
}{
	{"HOT", 0x8e11fdce90b3c7f0, 12800, 3200},
	{"LEU", 0xfa782f66ad36e754, 10328, 2582},
	{"2DC", 0x277793c2eaf256b4, 6400, 3200},
	{"3DC", 0x277793c2eaf256b4, 6400, 3200},
	{"BKP", 0x9dd5b608106f1fac, 9600, 3200},
	{"PAT", 0xf00c5205b6391331, 7564, 2702},
	{"DWT", 0xf7f3283156fb9a78, 7728, 1932},
	{"KMN", 0x495f4f4961392cd9, 6868, 2544},
	{"SAD", 0x3d4181885779e961, 20272, 2534},
	{"NW", 0x398c882d3c597a88, 16400, 1800},
	{"BFS", 0x50bd19298122a214, 5322, 1457},
	{"MVT", 0x6f59a26c235b75a8, 5100, 800},
	{"BIC", 0x6f59a26c235b75a8, 5100, 800},
	{"SRD", 0x4358d1a9f6302ba7, 18282, 3047},
	{"HSD", 0xafab4a922a6fe131, 23008, 2876},
	{"MRQ", 0xb6ee1c1900ef1a0c, 38400, 3200},
	{"STN", 0xb6ee1c1900ef1a0c, 38400, 3200},
	{"HWL", 0x204e9db72b021d6b, 13770, 2431},
	{"SGM", 0xb45211eab6882b30, 26880, 3200},
	{"HIS", 0x4f8775464b58a730, 19600, 1800},
	{"SPV", 0x2cbbf05e2b71d01e, 16398, 2103},
	{"B+T", 0xdcfe856b69005983, 22398, 1939},
	{"HYB", 0x6ae84f5d7f4abaa9, 26220, 2241},
}

// TestTraceLayout checks the exact-size layout: one capped slice per warp
// (cap == len, so an append to one warp can never write into the next while
// a trace is shared across a sweep), Accesses the sum of the warp lengths,
// TouchedPages a recount of the distinct pages, and the pinned fingerprints.
func TestTraceLayout(t *testing.T) {
	if len(layoutGolden) != len(All()) {
		t.Fatalf("%d golden rows for %d benchmarks", len(layoutGolden), len(All()))
	}
	for _, want := range layoutGolden {
		b, ok := ByAbbr(want.abbr)
		if !ok {
			t.Fatalf("unknown benchmark %s", want.abbr)
		}
		tr := b.Generate(Options{Scale: 0.05})
		total := 0
		pages := make(map[memdef.PageNum]struct{})
		for w, acc := range tr.Warps {
			if cap(acc) != len(acc) {
				t.Errorf("%s warp %d: cap %d, len %d", b.Abbr, w, cap(acc), len(acc))
			}
			total += len(acc)
			for _, op := range acc {
				a := op.Access()
				pages[a.Addr.Page()] = struct{}{}
			}
		}
		if tr.Accesses != total || total != want.accesses {
			t.Errorf("%s: Accesses %d, warps hold %d, want %d", b.Abbr, tr.Accesses, total, want.accesses)
		}
		if tr.TouchedPages != len(pages) || tr.TouchedPages != want.touched {
			t.Errorf("%s: TouchedPages %d, recount %d, want %d", b.Abbr, tr.TouchedPages, len(pages), want.touched)
		}
		if fp := Fingerprint(tr.Warps); fp != want.fingerprint {
			t.Errorf("%s: fingerprint %#016x, want %#016x", b.Abbr, fp, want.fingerprint)
		}
	}
}

// generateAllocCeiling is the measured allocation count of one SRD
// generation: the RNG and its source, the membership set and list, the
// growing pass list (three), the per-warp offsets, the touched-page bitset,
// the warp headers and the one backing array.
const generateAllocCeiling = 11

// TestGenerateAllocs pins trace generation at a small constant number of
// allocations, independent of the trace's length.
func TestGenerateAllocs(t *testing.T) {
	b, _ := ByAbbr("SRD")
	if a := testing.AllocsPerRun(5, func() { b.Generate(Options{Scale: 0.05}) }); a > generateAllocCeiling {
		t.Errorf("SRD Generate: %v allocs, ceiling %d", a, generateAllocCeiling)
	}
}
