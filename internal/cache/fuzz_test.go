package cache

import (
	"math"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// refCache is the naive reference model FuzzCache checks Cache against: a
// flat slice of lines holding whole block numbers, validity and dirty flags
// and 64-bit LRU ticks, searched by linear scans. A block's set only decides
// where it is placed; the victim is the first invalid way of that set, else
// the way with the smallest tick.
type refCache struct {
	sets, ways int
	lineSz     uint64
	blocks     []uint64
	valid      []bool
	dirty      []bool
	ticks      []uint64
	tick       uint64
	stats      Stats
}

func newRefCache(name string, capacity, ways, lineSz int) *refCache {
	n := capacity / lineSz
	return &refCache{
		sets:   n / ways,
		ways:   ways,
		lineSz: uint64(lineSz),
		blocks: make([]uint64, n),
		valid:  make([]bool, n),
		dirty:  make([]bool, n),
		ticks:  make([]uint64, n),
		stats:  Stats{Name: name},
	}
}

func (r *refCache) find(a memdef.VirtAddr) int {
	blk := uint64(a) / r.lineSz
	for i := range r.blocks {
		if r.valid[i] && r.blocks[i] == blk {
			return i
		}
	}
	return -1
}

func (r *refCache) access(a memdef.VirtAddr, kind memdef.AccessKind) AccessResult {
	r.tick++
	if i := r.find(a); i >= 0 {
		r.dirty[i] = r.dirty[i] || kind == memdef.Write
		r.ticks[i] = r.tick
		r.stats.Hits++
		return AccessResult{Hit: true}
	}
	r.stats.Misses++
	blk := uint64(a) / r.lineSz
	lo := int(blk%uint64(r.sets)) * r.ways
	v := -1
	for i := lo; i < lo+r.ways; i++ {
		if !r.valid[i] {
			v = i
			break
		}
	}
	var res AccessResult
	if v < 0 {
		v = lo
		for i := lo; i < lo+r.ways; i++ {
			if r.ticks[i] < r.ticks[v] {
				v = i
			}
		}
		r.stats.Evictions++
		if r.dirty[v] {
			r.stats.Writebacks++
			res.WritebackVictim = true
		}
	}
	r.blocks[v], r.valid[v], r.dirty[v], r.ticks[v] = blk, true, kind == memdef.Write, r.tick
	return res
}

func (r *refCache) invalidatePage(p memdef.PageNum) int {
	dropped := 0
	for i, blk := range r.blocks {
		if r.valid[i] && memdef.VirtAddr(blk*r.lineSz).Page() == p {
			r.valid[i] = false
			dropped++
		}
	}
	return dropped
}

// fuzzCacheGeometries are the (capacity, ways, line size) shapes FuzzCache
// drives: Table I's L1 and page-walk cache, a small set-associative cache, a
// fully-associative one, a direct-mapped one with three sets, and two whose
// set count is not a power of two (6 sets of 2 ways, and 6 sets of 16 ways
// like a scaled-down Table-I L2).
var fuzzCacheGeometries = [][3]int{
	{48 << 10, 6, 128}, {8 << 10, 16, 8}, {1024, 4, 64}, {512, 8, 64},
	{192, 1, 64}, {768, 2, 64}, {6 * 16 * 128, 16, 128},
}

// FuzzCache decodes a geometry and a stream of operations from the input and
// runs them on a Cache and on refCache side by side, comparing every return
// value and the counters after every operation, and the cached set of lines
// at the end.
//
// Byte 0 picks the geometry. Bit 0 of byte 1 picks the address base (low or
// high in the address space); when bit 1 is set, the cache's clock starts
// byte1>>2 accesses before its largest value, so the stream crosses the
// clock's rewind. Each operation is 3 bytes: the operation, then a 16-bit
// operand that names a line within four times the cache's capacity. The
// operation byte 0xff resets both; otherwise it modulo 7 reads (0-2), writes
// (3-4), probes (5) or invalidates the line's page (6), and its high bits
// pick the byte offset within the line.
func FuzzCache(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 1, 3, 0, 5, 0, 0, 9, 5, 0, 1, 6, 0, 1, 5, 0, 9})
	f.Add([]byte{5, 1, 3, 0, 0, 0, 0, 6, 0, 0, 12, 1, 0, 18, 5, 0, 0, 0xff, 0, 0, 4, 0, 6})
	// Lines 0-7 fill the fully-associative set, are read again from 7 down
	// to 0, and line 0 once more as the clock reaches its largest value.
	// The read of line 8 rewinds the clock and must evict line 7, the least
	// recently used though the last way; line 9 must then evict line 6, not
	// the newer line 8.
	f.Add([]byte{3, 2 | 17<<2,
		0, 0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 5, 0, 0, 6, 0, 0, 7,
		0, 0, 7, 0, 0, 6, 0, 0, 5, 0, 0, 4, 0, 0, 3, 0, 0, 2, 0, 0, 1, 0, 0, 0,
		0, 0, 0, 0, 0, 8, 5, 0, 7, 5, 0, 0, 0, 0, 9, 5, 0, 6, 5, 0, 8})
	f.Add([]byte{6, 3 | 40<<2, 0, 0, 0, 3, 0, 6, 0, 0, 96, 0, 0, 6, 0, 0, 102, 6, 0, 0, 0, 0, 192, 5, 0, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := fuzzCacheGeometries[int(data[0])%len(fuzzCacheGeometries)]
		capacity, ways, lineSz := g[0], g[1], g[2]
		var base memdef.VirtAddr
		if data[1]&1 == 1 {
			base = 1<<memdef.VABits - memdef.VirtAddr(8*capacity)
		}
		c := New("fuzz", capacity, ways, lineSz)
		ref := newRefCache("fuzz", capacity, ways, lineSz)
		if data[1]&2 != 0 {
			c.tick = math.MaxUint32 - uint32(data[1]>>2)
		}
		span := uint64(4 * capacity / lineSz)
		for pos := 2; pos+3 <= len(data); pos += 3 {
			op, arg := data[pos], uint64(data[pos+1])<<8|uint64(data[pos+2])
			a := base + memdef.VirtAddr((arg%span)*uint64(lineSz)+uint64(op>>3)%uint64(lineSz))
			switch {
			case op == 0xff:
				c.Reset()
				ref = newRefCache("fuzz", capacity, ways, lineSz)
			case op%7 <= 4:
				kind := memdef.Read
				if op%7 >= 3 {
					kind = memdef.Write
				}
				if got, want := c.Access(a, kind), ref.access(a, kind); got != want {
					t.Fatalf("op %d: Access(%v, %v) = %+v, reference %+v", pos, a, kind, got, want)
				}
			case op%7 == 5:
				if got, want := c.Probe(a), ref.find(a) >= 0; got != want {
					t.Fatalf("op %d: Probe(%v) = %v, reference %v", pos, a, got, want)
				}
			default:
				if got, want := c.InvalidatePage(a.Page()), ref.invalidatePage(a.Page()); got != want {
					t.Fatalf("op %d: InvalidatePage(%v) = %d, reference %d", pos, a.Page(), got, want)
				}
			}
			if got := c.Stats(); got != ref.stats {
				t.Fatalf("op %d (%d): stats %+v, reference %+v", pos, op, got, ref.stats)
			}
		}
		for blk := uint64(0); blk < span; blk++ {
			a := base + memdef.VirtAddr(blk*uint64(lineSz))
			if got, want := c.Probe(a), ref.find(a) >= 0; got != want {
				t.Fatalf("end: Probe(%v) = %v, reference %v", a, got, want)
			}
		}
	})
}
