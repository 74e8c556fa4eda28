package tlb

import (
	"slices"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// refTLB is the naive reference model FuzzTLB checks TLB against: a flat
// slice of pages with validity flags and LRU ticks, searched by linear
// scans. Every geometry uses the set-associative victim rule — the last
// invalid way of the set in scan order, else the way with the smallest tick —
// which for a single set is exactly "a free slot, else the least recently
// used page".
type refTLB struct {
	sets, ways int
	pages      []memdef.PageNum
	valid      []bool
	ticks      []uint64
	tick       uint64
	stats      Stats
}

func newRef(name string, entries, ways int) *refTLB {
	return &refTLB{
		sets:  entries / ways,
		ways:  ways,
		pages: make([]memdef.PageNum, entries),
		valid: make([]bool, entries),
		ticks: make([]uint64, entries),
		stats: Stats{Name: name},
	}
}

func (r *refTLB) set(p memdef.PageNum) (lo, hi int) {
	lo = int(uint64(p)%uint64(r.sets)) * r.ways
	return lo, lo + r.ways
}

func (r *refTLB) find(p memdef.PageNum) int {
	for i := range r.pages {
		if r.valid[i] && r.pages[i] == p {
			return i
		}
	}
	return -1
}

func (r *refTLB) lookup(p memdef.PageNum) bool {
	if i := r.find(p); i >= 0 {
		r.tick++
		r.ticks[i] = r.tick
		r.stats.Hits++
		return true
	}
	r.stats.Misses++
	return false
}

func (r *refTLB) insert(p memdef.PageNum) {
	r.tick++
	if i := r.find(p); i >= 0 {
		r.ticks[i] = r.tick
		return
	}
	lo, hi := r.set(p)
	v := -1
	for i := lo; i < hi; i++ {
		if !r.valid[i] {
			v = i
		}
	}
	if v < 0 {
		v = lo
		for i := lo; i < hi; i++ {
			if r.ticks[i] < r.ticks[v] {
				v = i
			}
		}
		r.stats.Evictions++
	}
	r.pages[v], r.valid[v], r.ticks[v] = p, true, r.tick
}

func (r *refTLB) invalidate(p memdef.PageNum) bool {
	i := r.find(p)
	if i < 0 {
		return false
	}
	r.valid[i] = false
	r.stats.Shootdowns++
	return true
}

func (r *refTLB) resident() []memdef.PageNum {
	var out []memdef.PageNum
	for i, p := range r.pages {
		if r.valid[i] {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// fuzzGeometries are the TLB shapes FuzzTLB drives: Table I's L1 and L2,
// small fully-associative and set-associative ones that evict constantly,
// the degenerate single-entry and direct-mapped cases, and a set count that
// is not a power of two (3 sets of 8 ways), which a config may give.
var fuzzGeometries = [][2]int{
	{128, 128}, {512, 16}, {8, 8}, {16, 4}, {12, 3}, {1, 1}, {8, 1}, {24, 8},
}

// FuzzTLB decodes a geometry and a stream of operations from the input and
// runs them on a TLB and on refTLB side by side, comparing every return
// value, the counters after every operation and, after every shootdown, the
// resident page set.
//
// Byte 0 picks the geometry, byte 1 the page base (low or high in the
// address space). Each operation is 3 bytes: the operation, then a 16-bit
// operand that names a page within four times the TLB's capacity (or, for
// InvalidateChunk, a chunk and a page mask).
func FuzzTLB(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 2, 3, 0, 1, 4, 0, 1})
	f.Add([]byte{1, 1, 1, 0, 7, 1, 1, 7, 4, 0xff, 0xff, 0, 1, 7})
	f.Add([]byte{3, 0, 1, 0, 1, 1, 0, 5, 1, 0, 9, 1, 0, 13, 1, 0, 17, 0, 0, 1, 4, 0x12, 0x34, 5, 0, 0, 6, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		entries, ways := g[0], g[1]
		var base memdef.PageNum
		if data[1]&1 == 1 {
			base = 1<<(memdef.VABits-memdef.PageShift) - memdef.PageNum(8*entries)
		}
		span := uint64(4 * entries)
		tl := New("fuzz", entries, ways)
		ref := newRef("fuzz", entries, ways)
		for pos := 2; pos+3 <= len(data); pos += 3 {
			op, arg := data[pos]%7, uint64(data[pos+1])<<8|uint64(data[pos+2])
			p := base + memdef.PageNum(arg%span)
			switch op {
			case 0:
				if got, want := tl.Lookup(p), ref.lookup(p); got != want {
					t.Fatalf("op %d: Lookup(%d) = %v, reference %v", pos, p, got, want)
				}
			case 1:
				tl.Insert(p)
				ref.insert(p)
			case 2:
				if got, want := tl.Contains(p), ref.find(p) >= 0; got != want {
					t.Fatalf("op %d: Contains(%d) = %v, reference %v", pos, p, got, want)
				}
			case 3:
				if got, want := tl.Invalidate(p), ref.invalidate(p); got != want {
					t.Fatalf("op %d: Invalidate(%d) = %v, reference %v", pos, p, got, want)
				}
			case 4:
				c := (base + memdef.PageNum(uint64(data[pos+1])%span)).Chunk()
				mask := memdef.PageBitmap(data[pos+2]) | memdef.PageBitmap(data[pos+1])<<8
				want := 0
				for idx := 0; idx < memdef.ChunkPages; idx++ {
					if mask.Has(idx) && ref.invalidate(c.Page(idx)) {
						want++
					}
				}
				if got := tl.InvalidateChunk(c, mask); got != want {
					t.Fatalf("op %d: InvalidateChunk(%d, %#x) = %d, reference %d", pos, c, mask, got, want)
				}
			case 5:
				tl.Flush()
				clear(ref.valid)
			case 6:
				tl.Reset()
				ref = newRef("fuzz", entries, ways)
			}
			if got := tl.Stats(); got != ref.stats {
				t.Fatalf("op %d (%d): stats %+v, reference %+v", pos, op, got, ref.stats)
			}
			if op == 3 || op == 4 || pos+6 > len(data) {
				var got []memdef.PageNum
				tl.ForEachPage(func(p memdef.PageNum) { got = append(got, p) })
				slices.Sort(got)
				if want := ref.resident(); !slices.Equal(got, want) {
					t.Fatalf("op %d: resident %v, reference %v", pos, got, want)
				}
			}
		}
	})
}
