// Package cache implements the set-associative data caches of the simulated
// GPU (per-SM L1, shared L2) and the page-walk cache, all LRU (Table I).
//
// The cache is a tag store only — the simulator never materializes data — and
// is used by the timing model to decide at which level of the hierarchy an
// access is served. Write policy is write-back/write-allocate; a victim's
// dirty state is surfaced to the caller so DRAM write traffic can be charged.
package cache

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/reproductions/cppe/internal/memdef"
)

// Line state bits, the low two bits of a line's key.
const (
	lineValid = 1 << iota
	lineDirty
)

// Cache is a set-associative, LRU, write-back tag store.
//
// A line is 12 bytes in two parallel arrays: keys[i] is tag<<2 | dirty |
// valid, and stamps[i] the 32-bit clock tick of its last access. An
// invalidated line keeps its tag and dirty bit. A set scan reads one
// contiguous run of each: a 16-way set is two host cache lines of keys and
// one of stamps. The stamps and the per-set hints share one allocation, so a
// cache is two allocations whatever its size. Against 16-byte records of key
// and 64-bit tick, a Table-I machine's tag stores take 439 KiB instead of
// 575 KiB; on a 2-vCPU x86 host over 16 alternating rounds the medians of
// BenchmarkAccessStream (33.3 to 35.1 ns) and BenchmarkAccessHit (5.8 to
// 6.2 ns) stayed inside the older layout's quartiles. (Per-line age bytes,
// 9 bytes a line, were measured slower on the streaming miss path; an O(1)
// hash-index variant was measured slower than a scan: with 6-16 ways a set
// scan stays within a few hot cache lines, which beats a cold random probe
// into an index sized for the whole store.)
//
// The 32-bit clock is rewound before it wraps: every set's valid lines are
// renumbered 1..n in stamp order and the clock restarts at ways. Victims
// depend only on the stamp order within a set, so every victim is the one a
// 64-bit clock would pick.
type Cache struct {
	name   string
	sets   int
	ways   int
	lineSz int
	shift  uint
	// Power-of-two set counts (the common Table-I geometries) resolve the
	// set/tag split with mask and shift instead of hardware division; setMask
	// is zero otherwise and indexOf falls back to the general form. Both
	// forms produce identical (set, tag) pairs.
	setMask  uint64
	setShift uint
	keys     []uint64
	// stamps[i] is the tick of line i's last access. stamps and hint are
	// the two halves of one allocation.
	stamps []uint32
	// hint[set] is the way of that set's most recent hit or fill. Accesses
	// check it before scanning: temporal locality makes repeat hits on the
	// same line common, and a correct hint resolves them with one compare.
	// The hint is purely an accelerator — a stale hint only fails the
	// one-compare check and falls through to the scan, so it never affects
	// results.
	hint []uint32
	tick uint32

	hits       uint64
	misses     uint64
	evictions  uint64
	writebacks uint64
}

// New builds a cache from total capacity, associativity and line size.
func New(name string, capacityBytes, ways, lineSize int) *Cache {
	return &NewMany(name, 1, capacityBytes, ways, lineSize)[0]
}

// NewMany builds n empty caches of one geometry, all named name, in one
// slice. Each cache keeps its own two tag-store allocations: sharing one
// across caches would save allocations but not bytes, since a store above
// the allocator's largest size class is rounded up to whole pages.
func NewMany(name string, n, capacityBytes, ways, lineSize int) []Cache {
	// A line of at least 4 bytes leaves two spare high bits in every tag,
	// which line.key shifts into.
	if capacityBytes <= 0 || ways <= 0 || lineSize < 4 {
		panic(fmt.Sprintf("cache %s: bad geometry cap=%d ways=%d line=%d", name, capacityBytes, ways, lineSize))
	}
	linesTotal := capacityBytes / lineSize
	if linesTotal == 0 || linesTotal%ways != 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", name, linesTotal, ways))
	}
	shift := uint(0)
	for 1<<shift < lineSize {
		shift++
	}
	if 1<<shift != lineSize {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", name, lineSize))
	}
	proto := Cache{
		name:   name,
		sets:   linesTotal / ways,
		ways:   ways,
		lineSz: lineSize,
		shift:  shift,
	}
	if proto.sets&(proto.sets-1) == 0 {
		proto.setMask = uint64(proto.sets - 1)
		for 1<<proto.setShift < proto.sets {
			proto.setShift++
		}
	}
	cs := make([]Cache, n)
	for i := range cs {
		cs[i] = proto
		cs[i].Reset()
	}
	return cs
}

// Reset empties the cache — every line invalid, LRU clock and counters at
// zero — keeping its name, geometry and tag-store storage.
func (c *Cache) Reset() {
	lines := c.sets * c.ways
	meta := zeroed(c.stamps, lines+c.sets)
	*c = Cache{
		name:     c.name,
		sets:     c.sets,
		ways:     c.ways,
		lineSz:   c.lineSz,
		shift:    c.shift,
		setMask:  c.setMask,
		setShift: c.setShift,
		keys:     zeroed(c.keys, lines),
		stamps:   meta[:lines],
		hint:     meta[lines:],
	}
}

// rewind renumbers every set's valid lines 1..n in stamp order and restarts
// the clock at ways, keeping each set's LRU order. Access calls it when the
// clock would wrap past its largest value, once every 2^32 accesses.
func (c *Cache) rewind() {
	order := make([]int, 0, c.ways)
	for base := 0; base < len(c.keys); base += c.ways {
		order = order[:0]
		for i := base; i < base+c.ways; i++ {
			if c.keys[i]&lineValid != 0 {
				order = append(order, i)
			} else {
				c.stamps[i] = 0
			}
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(c.stamps[a], c.stamps[b]) })
		for r, i := range order {
			c.stamps[i] = uint32(r + 1)
		}
	}
	c.tick = uint32(c.ways)
}

// zeroed returns buf resized to n zero elements, reusing its storage when it
// is big enough.
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func (c *Cache) indexOf(a memdef.VirtAddr) (set int, tag uint64) {
	blk := uint64(a) >> c.shift
	if c.setMask != 0 || c.sets == 1 {
		return int(blk & c.setMask), blk >> c.setShift
	}
	return int(blk % uint64(c.sets)), blk / uint64(c.sets)
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit bool
	// WritebackVictim is true when the access allocated a line whose victim
	// was dirty and must be written to the next level.
	WritebackVictim bool
}

// Access performs a read or write access with allocate-on-miss. It returns
// whether the access hit and whether a dirty victim was displaced.
func (c *Cache) Access(a memdef.VirtAddr, kind memdef.AccessKind) AccessResult {
	set, tag := c.indexOf(a)
	base := set * c.ways
	tick := c.tick + 1
	if tick == 0 {
		c.rewind()
		tick = c.tick + 1
	}
	c.tick = tick
	// A line hits when its key, dirty bit aside, is this tag and valid.
	want := tag<<2 | lineValid | lineDirty
	var dirty uint64
	if kind == memdef.Write {
		dirty = lineDirty
	}
	// MRU fast path: the way of the set's last hit or fill.
	if i := base + int(c.hint[set]); c.keys[i]|lineDirty == want {
		c.keys[i] |= dirty
		c.stamps[i] = tick
		c.hits++
		return AccessResult{Hit: true}
	}
	keys := c.keys[base : base+c.ways]
	stamps := c.stamps[base : base+len(keys)]
	// Single fused scan: find the hit, or the victim for the miss path. A
	// way ranks by its stamp, an invalid way by 0, and the first way of the
	// lowest rank is the victim: the first invalid way, else the least
	// recently used (a valid line's stamp is at least 1 and below the
	// clock, which never wraps).
	victim, best := 0, ^uint32(0)
	for i, k := range keys {
		if k|lineDirty == want {
			keys[i] |= dirty
			stamps[i] = tick
			c.hits++
			c.hint[set] = uint32(i)
			return AccessResult{Hit: true}
		}
		if rank := stamps[i] & -uint32(k&lineValid); rank < best {
			victim, best = i, rank
		}
	}
	c.misses++
	k := keys[victim]
	wb := k&(lineValid|lineDirty) == lineValid|lineDirty
	if k&lineValid != 0 {
		c.evictions++
	}
	if wb {
		c.writebacks++
	}
	keys[victim] = tag<<2 | lineValid | dirty
	stamps[victim] = tick
	c.hint[set] = uint32(victim)
	return AccessResult{Hit: false, WritebackVictim: wb}
}

// Probe reports whether a is cached, without perturbing state or stats.
func (c *Cache) Probe(a memdef.VirtAddr) bool {
	set, tag := c.indexOf(a)
	want := tag<<2 | lineValid | lineDirty
	for _, k := range c.keys[set*c.ways : (set+1)*c.ways] {
		if k|lineDirty == want {
			return true
		}
	}
	return false
}

// InvalidatePage drops every line belonging to virtual page p (used on page
// eviction so stale data does not linger; returns the number of lines
// dropped, counting dirty ones as write-backs to the host).
func (c *Cache) InvalidatePage(p memdef.PageNum) int {
	dropped := 0
	first := p.Addr()
	for off := 0; off < memdef.PageBytes; off += c.lineSz {
		set, tag := c.indexOf(first + memdef.VirtAddr(off))
		want := tag<<2 | lineValid | lineDirty
		keys := c.keys[set*c.ways : (set+1)*c.ways]
		for i := range keys {
			if keys[i]|lineDirty == want {
				keys[i] &^= lineValid
				dropped++
			}
		}
	}
	return dropped
}

// Stats is a snapshot of the cache counters.
type Stats struct {
	Name       string
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// HitRate returns hits/(hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

// Stats returns a snapshot of counters.
func (c *Cache) Stats() Stats {
	return Stats{Name: c.name, Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Writebacks: c.writebacks}
}

// LineSize returns the configured line size in bytes.
func (c *Cache) LineSize() int { return c.lineSz }

// Sets and Ways expose geometry.
func (c *Cache) Sets() int { return c.sets }
func (c *Cache) Ways() int { return c.ways }
