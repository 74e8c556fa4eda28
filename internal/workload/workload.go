// Package workload synthesizes the page-level access streams of the 23
// Rodinia/Parboil/Polybench applications the paper evaluates (Table II).
//
// The real CUDA binaries are not available in this environment, and the
// mechanisms under study (eviction policy + prefetcher in the UVM driver)
// observe only the page-level fault/touch stream. Each benchmark is therefore
// generated from its access-pattern archetype (the Type I-VI taxonomy of HPE
// [15], which the paper itself uses to explain every result), parameterized
// with the benchmark's footprint, traversal count, intra-chunk page stride
// (NW stride 2, MVT/BIC stride 4 — Section IV-C), hot-region fraction and
// region-moving window. Footprints are scaled by a constant factor to keep
// simulation tractable; all policy comparisons are relative, so the scaling
// preserves who wins and by roughly how much.
package workload

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/reproductions/cppe/internal/memdef"
)

// PatternType is the Table II access-pattern taxonomy.
type PatternType int

const (
	// TypeI is the streaming pattern.
	TypeI PatternType = iota + 1
	// TypeII is the partly repetitive pattern.
	TypeII
	// TypeIII is the mostly repetitive pattern.
	TypeIII
	// TypeIV is the thrashing pattern.
	TypeIV
	// TypeV is the repetitive-thrashing pattern.
	TypeV
	// TypeVI is the region-moving pattern.
	TypeVI
)

// String returns the Table II name of the pattern type.
func (t PatternType) String() string {
	switch t {
	case TypeI:
		return "Type I (Streaming)"
	case TypeII:
		return "Type II (Partly Repetitive)"
	case TypeIII:
		return "Type III (Mostly Repetitive)"
	case TypeIV:
		return "Type IV (Thrashing)"
	case TypeV:
		return "Type V (Repetitive-Thrashing)"
	case TypeVI:
		return "Type VI (Region Moving)"
	default:
		return fmt.Sprintf("Type?(%d)", int(t))
	}
}

// Short returns the compact label ("I".."VI").
func (t PatternType) Short() string {
	return [...]string{"", "I", "II", "III", "IV", "V", "VI"}[t]
}

// archetype selects the trace generator.
type archetype int

const (
	archStream archetype = iota
	archPartRep
	archMostRep
	archThrash
	archRepThrash
	archRegionMove
)

// params are the per-benchmark generator knobs.
type params struct {
	arch archetype
	// passes is the number of traversals (meaning varies per archetype).
	passes int
	// touchFrac is the fraction of pages that are members of the touched
	// set; non-member pages are never accessed (they become the untouched
	// pages of prefetched chunks).
	touchFrac float64
	// stride, when > 1, makes membership strided within each chunk
	// (every stride-th page), the fixed patterns of NW/MVT/BIC/HIS.
	stride int
	// repFrac is the fraction of the footprint re-traversed by the
	// repetition phases (Type II).
	repFrac float64
	// hotFrac is the hot-region fraction (Type V).
	hotFrac float64
	// winFrac is the moving-window fraction (Type VI).
	winFrac float64
	// shuffled randomizes chunk visit order per pass (BFS-like frontiers).
	shuffled bool
	// rareEvery, when > 0, gives each chunk one off-pattern page that is
	// touched only on every rareEvery-th pass. For strided applications
	// this produces the occasional pattern mismatch *after* a match that
	// separates the two pattern-buffer deletion schemes (Fig. 6/7): under
	// Scheme-1 the mismatch permanently deletes the chunk's pattern, under
	// Scheme-2 the pattern survives.
	rareEvery int
	// subsetFrac, when in (0,1), makes each pass touch only a random
	// subset of the member pages (slowly-filling chunks: BFS frontiers,
	// HWL). Such chunks favor Scheme-1, as the paper observes.
	subsetFrac float64
}

// Benchmark is one Table II application.
type Benchmark struct {
	Name  string
	Abbr  string
	Suite string
	Type  PatternType
	// FootprintMB is the paper-reported memory footprint.
	FootprintMB float64
	p           params
}

// All returns the 23 benchmarks of Table II in paper order.
func All() []Benchmark { return append([]Benchmark(nil), registry...) }

// ByAbbr looks a benchmark up by its Table II abbreviation (e.g. "SRD").
func ByAbbr(abbr string) (Benchmark, bool) {
	for _, b := range registry {
		if b.Abbr == abbr {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Abbrs returns all abbreviations in paper order.
func Abbrs() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Abbr
	}
	return out
}

// ByType returns the benchmarks of one pattern type, in paper order.
func ByType(t PatternType) []Benchmark {
	var out []Benchmark
	for _, b := range registry {
		if b.Type == t {
			out = append(out, b)
		}
	}
	return out
}

var registry = []Benchmark{
	// Type I: streaming.
	{"hotspot", "HOT", "Rodinia", TypeI, 12, params{arch: archStream, passes: 2, touchFrac: 1}},
	{"leukocyte", "LEU", "Rodinia", TypeI, 5.6, params{arch: archStream, passes: 2, touchFrac: 0.8}},
	{"2DCONV", "2DC", "Polybench", TypeI, 128, params{arch: archStream, passes: 1, touchFrac: 1}},
	{"3DCONV", "3DC", "Polybench", TypeI, 127.5, params{arch: archStream, passes: 1, touchFrac: 1}},

	// Type II: partly repetitive.
	{"backprop", "BKP", "Rodinia", TypeII, 9, params{arch: archPartRep, passes: 2, touchFrac: 1, repFrac: 0.5}},
	{"pathfinder", "PAT", "Rodinia", TypeII, 38.5, params{arch: archPartRep, passes: 2, touchFrac: 0.85, repFrac: 0.4}},
	{"dwt2d", "DWT", "Rodinia", TypeII, 27, params{arch: archPartRep, passes: 3, touchFrac: 0.6, repFrac: 0.5}},
	{"kmeans", "KMN", "Rodinia", TypeII, 130, params{arch: archPartRep, passes: 2, touchFrac: 0.8, repFrac: 0.35}},

	// Type III: mostly repetitive.
	{"sad", "SAD", "Parboil", TypeIII, 8.5, params{arch: archMostRep, passes: 4, touchFrac: 0.8}},
	{"nw", "NW", "Rodinia", TypeIII, 32, params{arch: archMostRep, passes: 5, touchFrac: 1, stride: 2, rareEvery: 3}},
	{"bfs", "BFS", "Rodinia", TypeIII, 37.2, params{arch: archMostRep, passes: 3, touchFrac: 0.5, shuffled: true, subsetFrac: 0.55}},
	{"MVT", "MVT", "Polybench", TypeIII, 64.1, params{arch: archMostRep, passes: 3, touchFrac: 1, stride: 4, hotFrac: 0.02}},
	{"BICG", "BIC", "Polybench", TypeIII, 64.1, params{arch: archMostRep, passes: 3, touchFrac: 1, stride: 4, hotFrac: 0.02}},

	// Type IV: thrashing.
	{"srad_v2", "SRD", "Rodinia", TypeIV, 96, params{arch: archThrash, passes: 3, touchFrac: 0.95}},
	{"hotspot3D", "HSD", "Rodinia", TypeIV, 24, params{arch: archThrash, passes: 4, touchFrac: 0.9}},
	{"mri-q", "MRQ", "Parboil", TypeIV, 5, params{arch: archThrash, passes: 6, touchFrac: 1}},
	{"stencil", "STN", "Parboil", TypeIV, 4, params{arch: archThrash, passes: 6, touchFrac: 1}},

	// Type V: repetitive-thrashing.
	{"heartwall", "HWL", "Rodinia", TypeV, 40.7, params{arch: archRepThrash, passes: 3, touchFrac: 0.8, hotFrac: 0.15, subsetFrac: 0.6}},
	{"sgemm", "SGM", "Parboil", TypeV, 12, params{arch: archRepThrash, passes: 3, touchFrac: 1, hotFrac: 0.2}},
	{"histo", "HIS", "Parboil", TypeV, 13.2, params{arch: archRepThrash, passes: 5, touchFrac: 1, stride: 2, hotFrac: 0.1, rareEvery: 3}},
	{"spmv", "SPV", "Parboil", TypeV, 27.3, params{arch: archRepThrash, passes: 3, touchFrac: 0.65, hotFrac: 0.15}},

	// Type VI: region moving.
	{"b+tree", "B+T", "Rodinia", TypeVI, 34.7, params{arch: archRegionMove, passes: 3, touchFrac: 0.6, winFrac: 0.15}},
	{"hybridsort", "HYB", "Rodinia", TypeVI, 104, params{arch: archRegionMove, passes: 3, touchFrac: 0.7, winFrac: 0.1}},
}

// Options control trace generation.
type Options struct {
	// Scale multiplies the paper footprint (default 0.25). Smaller scales
	// run faster; the policy comparisons are scale-relative.
	Scale float64
	// Warps is the number of independent access streams (default 64).
	Warps int
	// AccessesPerPage is how many distinct accesses hit each touched page
	// per traversal (default 2, exercising the data caches).
	AccessesPerPage int
	// Seed perturbs the deterministic per-benchmark RNG.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.Warps == 0 {
		o.Warps = 64
	}
	if o.AccessesPerPage == 0 {
		o.AccessesPerPage = 2
	}
	return o
}

// Trace is a generated workload: one access stream per warp.
type Trace struct {
	Warps [][]memdef.Op
	// FootprintPages is the allocation size in pages (chunk aligned); the
	// touched subset may be smaller for sparse benchmarks.
	FootprintPages int
	// TouchedPages is the number of distinct pages the trace accesses.
	TouchedPages int
	// Accesses is the total access count over all warps.
	Accesses int
}

// minFootprintChunks floors the scaled footprint. MHPE's absolute constants
// (T1/T2/T3, the chainLen/100 initial forward distance, the chainLen/64 x 8
// wrong-eviction buffer) are calibrated for paper-scale chunk chains; chains
// far below ~200 chunks would let the forward-distance cap swallow the whole
// old partition and turn MRU into LRU, which the paper's configurations never
// experience.
const minFootprintChunks = 200

// FootprintPages returns the benchmark's scaled footprint in pages, rounded
// up to a whole number of chunks.
func (b Benchmark) FootprintPages(scale float64) int {
	pages := int(b.FootprintMB * scale * float64(1<<20) / memdef.PageBytes)
	if pages < minFootprintChunks*memdef.ChunkPages {
		pages = minFootprintChunks * memdef.ChunkPages
	}
	rem := pages % memdef.ChunkPages
	if rem != 0 {
		pages += memdef.ChunkPages - rem
	}
	return pages
}

// seedFor mixes the option seed with the benchmark identity.
func (b Benchmark) seedFor(opt Options) int64 {
	h := int64(1469598103934665603)
	for _, c := range b.Abbr {
		h ^= int64(c)
		h *= 1099511628211
	}
	return h ^ opt.Seed
}

// Generate synthesizes the benchmark's trace. The archetype generator runs
// once and records each pass's global page order; layout then sizes every
// warp exactly and deals the passes into one backing array.
func (b Benchmark) Generate(opt Options) Trace {
	opt = opt.withDefaults()
	seed := b.seedFor(opt)
	g := &gen{
		b:     b,
		opt:   opt,
		pages: b.FootprintPages(opt.Scale),
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
	}
	g.buildMembership()
	switch b.p.arch {
	case archStream:
		g.stream()
	case archPartRep:
		g.partRep()
	case archMostRep:
		g.mostRep()
	case archThrash:
		g.thrash()
	case archRepThrash:
		g.repThrash()
	case archRegionMove:
		g.regionMove()
	}
	return g.layout()
}

// gen is the generator working state.
type gen struct {
	b     Benchmark
	opt   Options
	pages int
	rng   *rand.Rand
	seed  int64
	// member[p] reports whether page p is in the touched set.
	member []bool
	// memberList is the ascending list of member pages.
	memberList []int
	// passes are the recorded traversals, in generation order.
	passes []passOrder
	// arena backs the page orders built per pass (the others are
	// subslices of memberList).
	arena []int
	// warps are the per-warp access streams layout deals the passes into.
	warps [][]memdef.Op
}

// passOrder is one traversal: a global page order and the salt of its accesses.
type passOrder struct {
	order []int
	salt  int
}

// inSubset deterministically decides whether member page pg participates in
// the given pass for subset-touching benchmarks (slowly-filling chunks).
func (g *gen) inSubset(pg, pass int) bool {
	f := g.b.p.subsetFrac
	if f <= 0 || f >= 1 {
		return true
	}
	h := uint64(pg)*0x9e3779b97f4a7c15 ^ uint64(pass+1)*0xbf58476d1ce4e5b9 ^ uint64(g.seed)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return float64(h&(1<<20-1))/float64(1<<20) < f
}

// rareDue reports whether this pass touches the per-chunk off-pattern page.
func (g *gen) rareDue(pass int) bool {
	re := g.b.p.rareEvery
	return re > 0 && (pass+1)%re == 0
}

// chunkSweep appends one chunk's accesses for a pass to the arena: its
// member pages (subject to the per-pass subset) and, on rare passes, the
// chunk's off-pattern page (index 1, never a stride member).
func (g *gen) chunkSweep(c, pass int) {
	for k := 0; k < memdef.ChunkPages; k++ {
		pg := c*memdef.ChunkPages + k
		if g.member[pg] && g.inSubset(pg, pass) {
			g.arena = append(g.arena, pg)
		}
	}
	if g.rareDue(pass) {
		g.arena = append(g.arena, c*memdef.ChunkPages+1)
	}
}

// reserveArena sizes the arena for the orders the generator builds: per
// pass, at most every member page, one off-pattern page per chunk and one
// hot page per four chunks. Outgrowing it would only cost a reallocation;
// orders already recorded keep their old backing.
func (g *gen) reserveArena() {
	chunks := g.pages / memdef.ChunkPages
	g.arena = make([]int, 0, g.b.p.passes*(len(g.memberList)+chunks+chunks/4+1))
}

// buildMembership fixes the touched-page set: strided benchmarks touch every
// stride-th page of each chunk; fractional benchmarks touch a random but
// fixed subset. The faulted page of a chunk is always a member by
// construction (faults only happen on member pages).
func (g *gen) buildMembership() {
	p := g.b.p
	g.member = make([]bool, g.pages)
	for i := 0; i < g.pages; i++ {
		switch {
		case p.stride > 1:
			g.member[i] = memdef.PageNum(i).Index()%p.stride == 0
		case p.touchFrac >= 1:
			g.member[i] = true
		default:
			g.member[i] = g.rng.Float64() < p.touchFrac
		}
	}
	// Every chunk must have at least one member page, or the chunk would
	// never fault in and the footprint would shrink.
	for c := 0; c < g.pages/memdef.ChunkPages; c++ {
		any := false
		for i := 0; i < memdef.ChunkPages; i++ {
			if g.member[c*memdef.ChunkPages+i] {
				any = true
				break
			}
		}
		if !any {
			g.member[c*memdef.ChunkPages] = true
		}
	}
	n := 0
	for _, m := range g.member {
		if m {
			n++
		}
	}
	g.memberList = make([]int, 0, n)
	for i, m := range g.member {
		if m {
			g.memberList = append(g.memberList, i)
		}
	}
}

// emit appends the page's accesses to warp w. Each traversal issues
// AccessesPerPage accesses at distinct line offsets; a small fraction are
// writes so dirty write-back traffic exists.
func (g *gen) emit(w, page, salt int) {
	for k := 0; k < g.opt.AccessesPerPage; k++ {
		kind := memdef.Read
		if (page+k+salt)%7 == 0 {
			kind = memdef.Write
		}
		off := uint64((salt+k)*384) % memdef.PageBytes
		g.warps[w] = append(g.warps[w], memdef.PackAccess(memdef.Access{
			Addr: memdef.PageNum(page).Addr() + memdef.VirtAddr(off),
			Kind: kind,
		}))
	}
}

// blockPages is the number of pages per thread-block-equivalent work unit.
// A pass's global page order is cut into blocks of this size, and block i is
// executed by warp i mod Warps. Because the warps advance in near lockstep
// (same per-block work), the *aggregate* access stream sweeps the order as a
// narrow band of Warps x blockPages pages — the way waves of thread blocks
// tile an array on a real GPU. This is what preserves global reuse distances
// (and hence the thrashing behaviour the paper studies) under concurrency.
const blockPages = 2

// distribute records one pass's global page order; layout deals it to the
// warps block by block.
func (g *gen) distribute(order []int, salt int) {
	g.passes = append(g.passes, passOrder{order: order, salt: salt})
}

// layout builds the trace from the recorded passes. A pass's contribution to
// each warp depends only on its length, so every warp's exact length is known
// before any access is written: the warps are carved out of one backing array
// of exactly Accesses entries, each capped at its own length so an append to
// one warp can never write into the next (traces are shared across a sweep).
func (g *gen) layout() Trace {
	nw, app := g.opt.Warps, g.opt.AccessesPerPage
	// ends[w+1] accumulates warp w's length, then becomes its end offset.
	ends := make([]int, nw+1)
	seen := make([]uint64, (g.pages+63)/64)
	for _, ps := range g.passes {
		for i, w := 0, 0; i < len(ps.order); i, w = i+blockPages, (w+1)%nw {
			ends[w+1] += minInt(blockPages, len(ps.order)-i) * app
		}
		for _, pg := range ps.order {
			seen[pg/64] |= 1 << uint(pg%64)
		}
	}
	for w := 0; w < nw; w++ {
		ends[w+1] += ends[w]
	}
	backing := make([]memdef.Op, ends[nw])
	g.warps = make([][]memdef.Op, nw)
	for w := range g.warps {
		g.warps[w] = backing[ends[w]:ends[w]:ends[w+1]]
	}
	for _, ps := range g.passes {
		for i, w := 0, 0; i < len(ps.order); i, w = i+blockPages, (w+1)%nw {
			for _, pg := range ps.order[i:minInt(len(ps.order), i+blockPages)] {
				g.emit(w, pg, ps.salt)
			}
		}
	}
	touched := 0
	for _, x := range seen {
		touched += bits.OnesCount64(x)
	}
	return Trace{
		Warps:          g.warps,
		FootprintPages: g.pages,
		TouchedPages:   touched,
		Accesses:       ends[nw],
	}
}

// stream: `passes` sequential global sweeps (1-2 for Type I). With a single
// pass nothing is ever reused; with two, the reuse distance is the whole
// footprint.
func (g *gen) stream() {
	for pass := 0; pass < g.b.p.passes; pass++ {
		g.distribute(g.memberList, pass)
	}
}

// thrash: the same global sweep repeated 3-6 times — the LRU-pathological
// cyclic pattern of Type IV. Identical mechanically to stream; the pass
// count is what turns streaming into thrashing under oversubscription.
func (g *gen) thrash() { g.stream() }

// partRep: one full sweep, then `passes-1` re-traversals of the leading
// repFrac portion (Type II: partly repetitive).
func (g *gen) partRep() {
	g.distribute(g.memberList, 0)
	rep := maxInt(1, int(float64(len(g.memberList))*g.b.p.repFrac))
	for pass := 1; pass < g.b.p.passes; pass++ {
		g.distribute(g.memberList[:rep], pass)
	}
}

// mostRep: repeated sweeps with intra-chunk structure (the member pattern:
// strides for NW/MVT/BIC, random sparsity for BFS/SAD). BFS-like benchmarks
// shuffle the global chunk order every pass (frontier randomness); hotFrac
// splices a small hot region (the repeatedly-read vector of MVT/BICG) into
// the order after every few chunks.
func (g *gen) mostRep() {
	p := g.b.p
	chunks := g.pages / memdef.ChunkPages
	hotPages := maxInt(1, int(float64(len(g.memberList))*p.hotFrac))
	g.reserveArena()
	chunkOrder := make([]int, chunks)
	for pass := 0; pass < p.passes; pass++ {
		for i := range chunkOrder {
			chunkOrder[i] = i
		}
		if p.shuffled {
			g.rng.Shuffle(chunks, func(i, j int) {
				chunkOrder[i], chunkOrder[j] = chunkOrder[j], chunkOrder[i]
			})
		}
		start := len(g.arena)
		for i, c := range chunkOrder {
			g.chunkSweep(c, pass)
			if p.hotFrac > 0 && i%4 == 0 {
				g.arena = append(g.arena, g.memberList[(i*2654435761)%hotPages])
			}
		}
		g.distribute(g.arena[start:], pass)
	}
}

// repThrash: alternating hot-region re-traversals and full sweeps (Type V).
// The hot region keeps re-earning recency while the sweeps cycle the rest of
// the footprint through memory.
func (g *gen) repThrash() {
	p := g.b.p
	hot := g.memberList[:maxInt(1, int(float64(len(g.memberList))*p.hotFrac))]
	chunks := g.pages / memdef.ChunkPages
	g.reserveArena()
	for pass := 0; pass < p.passes; pass++ {
		g.distribute(hot, pass*3)
		g.distribute(hot, pass*3+1)
		start := len(g.arena)
		for c := 0; c < chunks; c++ {
			g.chunkSweep(c, pass)
		}
		g.distribute(g.arena[start:], pass*3+2)
	}
}

// regionMove: a window slides across the member list; at each position the
// window is traversed `passes` times before it advances by half its size
// (Type VI). Recency tracks the window, so the pattern is strongly
// LRU-friendly and MRU-hostile.
func (g *gen) regionMove() {
	p := g.b.p
	n := len(g.memberList)
	win := maxInt(memdef.ChunkPages, int(float64(n)*p.winFrac))
	step := maxInt(1, win/2)
	for lo, salt := 0, 0; lo < n; lo, salt = lo+step, salt+1 {
		hi := minInt(n, lo+win)
		for pass := 0; pass < p.passes; pass++ {
			g.distribute(g.memberList[lo:hi], salt*8+pass)
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Summary describes a benchmark for Table II regeneration.
type Summary struct {
	Name, Abbr, Suite string
	Type              PatternType
	FootprintMB       float64
	ScaledPages       int
}

// TableII returns the workload characteristics table at the given scale.
func TableII(scale float64) []Summary {
	if scale == 0 {
		scale = 0.25
	}
	out := make([]Summary, 0, len(registry))
	for _, b := range registry {
		out = append(out, Summary{
			Name: b.Name, Abbr: b.Abbr, Suite: b.Suite, Type: b.Type,
			FootprintMB: b.FootprintMB,
			ScaledPages: b.FootprintPages(scale),
		})
	}
	return out
}

// SortedAbbrs returns abbreviations sorted alphabetically (for stable test
// output).
func SortedAbbrs() []string {
	out := Abbrs()
	sort.Strings(out)
	return out
}

// AccPerPageForTest exposes the default accesses-per-page constant to the
// band-limit test, which reconstructs the block interleaving.
const AccPerPageForTest = 2
