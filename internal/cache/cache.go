// Package cache implements the set-associative data caches of the simulated
// GPU (per-SM L1, shared L2) and the page-walk cache, all LRU (Table I).
//
// The cache is a tag store only — the simulator never materializes data — and
// is used by the timing model to decide at which level of the hierarchy an
// access is served. Write policy is write-back/write-allocate; a victim's
// dirty state is surfaced to the caller so DRAM write traffic can be charged.
package cache

import (
	"fmt"

	"github.com/reproductions/cppe/internal/memdef"
)

// Line flag bits.
const (
	lineValid = 1 << iota
	lineDirty
)

// Cache is a set-associative, LRU, write-back tag store.
//
// The store is laid out struct-of-arrays: the tag-match scan — the hottest
// loop in the simulator — walks a dense []uint64 of tags instead of striding
// over 24-byte line records, touching 3x fewer cache lines per set probe.
// tags, flags, and lru are parallel arrays indexed by line number. (An
// O(1) hash-index variant was measured slower here: with 6-16 ways a set
// scan stays within one or two hot cache lines, which beats a cold random
// probe into an index sized for the whole store.)
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
	tags     []uint64
	flags    []uint8
	lru      []uint64
	// hint[set] is the way of that set's most recent hit or fill. Accesses
	// check it before scanning: temporal locality makes repeat hits on the
	// same line common, and a correct hint resolves them with one compare.
	// The hint is purely an accelerator — a stale hint only fails the
	// one-compare check and falls through to the scan, so it is not
	// checkpointed and never affects results.
	//cppelint:statecov pure accelerator: a stale hint fails its one-compare check and falls through to the scan with identical results
	hint []uint16
	tick uint64

	hits       uint64
	misses     uint64
	evictions  uint64
	writebacks uint64
}

// New builds a cache from total capacity, associativity and line size.
func New(name string, capacityBytes, ways, lineSize int) *Cache {
	if capacityBytes <= 0 || ways <= 0 || lineSize <= 0 {
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
	c := &Cache{
		name:   name,
		sets:   linesTotal / ways,
		ways:   ways,
		lineSz: lineSize,
		shift:  shift,
	}
	if c.sets&(c.sets-1) == 0 {
		c.setMask = uint64(c.sets - 1)
		for 1<<c.setShift < c.sets {
			c.setShift++
		}
	}
	c.Reset()
	return c
}

// Reset empties the cache — every line invalid, LRU clock and counters at
// zero — keeping its name, geometry and tag-store storage.
func (c *Cache) Reset() {
	lines := c.sets * c.ways
	*c = Cache{
		name:     c.name,
		sets:     c.sets,
		ways:     c.ways,
		lineSz:   c.lineSz,
		shift:    c.shift,
		setMask:  c.setMask,
		setShift: c.setShift,
		tags:     zeroed(c.tags, lines),
		flags:    zeroed(c.flags, lines),
		lru:      zeroed(c.lru, lines),
		hint:     zeroed(c.hint, c.sets),
	}
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
	c.tick++
	// MRU fast path: a tag+valid match is the hit condition however the way
	// is found, so a hinted hit needs no scan.
	if h := base + int(c.hint[set]); c.tags[h] == tag && c.flags[h]&lineValid != 0 {
		c.lru[h] = c.tick
		if kind == memdef.Write {
			c.flags[h] |= lineDirty
		}
		c.hits++
		return AccessResult{Hit: true}
	}
	// Single fused scan: find the hit, or — for the miss path — the first
	// invalid way, else the LRU victim, without walking the set twice. A
	// stale tag of an invalidated line is disambiguated by the flags check.
	victim := -1
	var victimLRU uint64 = ^uint64(0)
	for i := base; i < base+c.ways; i++ {
		f := c.flags[i]
		if f&lineValid == 0 {
			if victimLRU != 0 {
				victim = i
				victimLRU = 0
			}
			continue
		}
		if c.tags[i] == tag {
			c.lru[i] = c.tick
			if kind == memdef.Write {
				c.flags[i] |= lineDirty
			}
			c.hits++
			c.hint[set] = uint16(i - base)
			return AccessResult{Hit: true}
		}
		if victimLRU != 0 && c.lru[i] < victimLRU {
			victim = i
			victimLRU = c.lru[i]
		}
	}
	c.misses++
	wb := c.flags[victim]&(lineValid|lineDirty) == lineValid|lineDirty
	if c.flags[victim]&lineValid != 0 {
		c.evictions++
	}
	if wb {
		c.writebacks++
	}
	c.tags[victim] = tag
	c.lru[victim] = c.tick
	if kind == memdef.Write {
		c.flags[victim] = lineValid | lineDirty
	} else {
		c.flags[victim] = lineValid
	}
	c.hint[set] = uint16(victim - base)
	return AccessResult{Hit: false, WritebackVictim: wb}
}

// Probe reports whether a is cached, without perturbing state or stats.
func (c *Cache) Probe(a memdef.VirtAddr) bool {
	set, tag := c.indexOf(a)
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		if c.tags[i] == tag && c.flags[i]&lineValid != 0 {
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
		base := set * c.ways
		for i := base; i < base+c.ways; i++ {
			if c.tags[i] == tag && c.flags[i]&lineValid != 0 {
				c.flags[i] &^= lineValid
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
