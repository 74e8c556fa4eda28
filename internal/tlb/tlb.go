// Package tlb provides the set-associative translation lookaside buffers used
// by the GPU MMU model: a private L1 TLB per SM and a shared L2 TLB, both with
// LRU replacement (Table I). The TLB here is a pure cache of page-to-frame
// mappings; timing (lookup latencies, ports) and miss handling (walker, fault
// path) are composed around it by the GMMU in package uvm.
package tlb

import (
	"fmt"
	"math/bits"

	"github.com/reproductions/cppe/internal/memdef"
)

// invalid marks an empty entry slot. No page number reaches it: a page is a
// virtual address shifted right by memdef.PageShift, so its top bits are 0.
const invalid = ^memdef.PageNum(0)

// noSlot marks an empty list link.
const noSlot int32 = -1

// TLB is a set-associative, LRU-replacement translation cache.
//
// Every entry is one 8-byte page number (invalid for an empty slot). What
// else is stored depends on the geometry; both layouts leave
// hit/miss/eviction/shootdown counters and LRU victim choices identical to a
// plain scan over stamped entries:
//
//   - Set-associative geometry (sets > 1) keeps a uint64 LRU stamp per entry
//     and scans the page's set (16 ways in Table I's L2) with no index.
//     Insert's victim is the last invalid way in scan order, else the way
//     with the smallest stamp.
//
//   - Fully-associative geometry (sets == 1, the 128-entry L1s) keeps no
//     stamps. A doubly-linked recency list orders the slots: every touch
//     moves a slot to the head, so the tail is the least recently used
//     entry, and a free list hands out unused slots without searching. A
//     linear-probing slot table (a power of two, at least twice the entry
//     count) maps a page to its slot in O(1) probes; deletion shifts the
//     rest of the probe run back, so there are no tombstones and the table
//     is never rebuilt. Probing is plain arithmetic on deterministic keys
//     (no Go map, nothing iterated).
type TLB struct {
	name  string
	sets  int
	ways  int
	pages []memdef.PageNum // sets x ways, row-major; invalid = empty

	// Set-associative only: LRU stamps (larger = more recently used).
	lru  []uint64
	tick uint64

	// Fully associative only. slots is the probe table: entry slot + 1, or
	// 0 for an empty position. prev/next link the recency list (next doubles
	// as the free-list link of unused slots). The three are consecutive
	// parts of one allocation, which slots' capacity spans.
	slots      []int32
	shift      uint
	prev, next []int32
	head, tail int32
	free       int32

	// Stats
	hits       uint64
	misses     uint64
	evictions  uint64
	shootdowns uint64
}

// New returns a TLB with the given total entry count and associativity.
// A fully associative TLB is expressed as ways == entries.
func New(name string, entries, ways int) *TLB {
	return &NewMany(name, 1, entries, ways)[0]
}

// NewMany returns n empty TLBs of one geometry, all named name. They share
// one allocation per kind of storage (entries, and LRU stamps or list
// links), so a machine's per-SM L1 TLBs cost three allocations, not three
// per SM.
func NewMany(name string, n, entries, ways int) []TLB {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %d entries / %d ways", entries, ways))
	}
	ts := make([]TLB, n)
	pages := make([]memdef.PageNum, n*entries)
	var lru []uint64
	var links []int32
	if sets := entries / ways; sets > 1 {
		lru = make([]uint64, n*entries)
	} else {
		links = make([]int32, n*linkLen(entries))
	}
	for i := range ts {
		t := &ts[i]
		*t = TLB{name: name, sets: entries / ways, ways: ways, pages: part(pages, i, entries)}
		if lru != nil {
			t.lru = part(lru, i, entries)
		} else {
			t.slots = part(links, i, linkLen(entries))
		}
		t.Reset()
	}
	return ts
}

// part returns the i-th of consecutive n-element parts of buf, capped so
// that resizing it never reaches into the next part.
func part[T any](buf []T, i, n int) []T { return buf[i*n : (i+1)*n : (i+1)*n] }

// probeSize is the fully-associative probe table's size for entries: a power
// of two, at least twice the entry count.
func probeSize(entries int) int {
	size := 2
	for size < 2*entries {
		size <<= 1
	}
	return size
}

// linkLen is the length of a fully-associative TLB's link storage: the probe
// table, then prev, then next.
func linkLen(entries int) int { return probeSize(entries) + 2*entries }

// Reset empties the TLB — no valid entry, LRU clock and counters at zero —
// keeping its name, geometry and storage.
func (t *TLB) Reset() {
	entries := t.sets * t.ways
	*t = TLB{
		name:  t.name,
		sets:  t.sets,
		ways:  t.ways,
		pages: resized(t.pages, entries),
		lru:   t.lru,
		slots: t.slots,
	}
	fillInvalid(t.pages)
	if t.sets > 1 {
		t.lru = zeroed(t.lru, entries)
		return
	}
	size := probeSize(entries)
	links := resized(t.slots[:cap(t.slots)], linkLen(entries))
	t.slots = links[:size]
	clear(t.slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.prev = links[size : size+entries]
	t.next = links[size+entries:]
	t.resetLists()
}

// resized returns buf at length n, reusing its storage when it is big
// enough; the contents are left for the caller to overwrite.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// zeroed returns buf resized to n zero elements.
func zeroed[T any](buf []T, n int) []T {
	buf = resized(buf, n)
	clear(buf)
	return buf
}

func fillInvalid(pages []memdef.PageNum) {
	for i := range pages {
		pages[i] = invalid
	}
}

// resetLists rebuilds the fully-associative lists for an empty TLB: no
// recency chain, every slot on the free list in ascending order.
func (t *TLB) resetLists() {
	t.head, t.tail = noSlot, noSlot
	t.free = 0
	for i := range t.next {
		t.next[i] = int32(i + 1)
		t.prev[i] = noSlot
	}
	t.next[len(t.next)-1] = noSlot
}

// home is the preferred probe position of page p (Fibonacci hashing: the
// top bits of the product are well-mixed even for sequential page numbers).
func (t *TLB) home(p memdef.PageNum) int {
	return int((uint64(p) * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the probe-table position holding page p, if any.
func (t *TLB) find(p memdef.PageNum) (int, bool) {
	mask := len(t.slots) - 1
	for i := t.home(p); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return 0, false
		}
		if t.pages[s-1] == p {
			return i, true
		}
	}
}

// put records that page p lives in entry slot s. p must not be present.
func (t *TLB) put(p memdef.PageNum, s int32) {
	mask := len(t.slots) - 1
	i := t.home(p)
	for t.slots[i] != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = s + 1
}

// remove empties probe position i and shifts the rest of its probe run back
// over the hole, so every remaining page stays reachable from its home with
// no tombstone. The pages of the run must still be in their entry slots.
func (t *TLB) remove(i int) {
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		// The page at j may fill the hole if the hole lies on its probe
		// path, i.e. between its home and j (cyclically).
		h := t.home(t.pages[t.slots[j]-1])
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
}

// listTouch moves slot to the head of the recency list (fully associative
// geometry only).
func (t *TLB) listTouch(s int32) {
	if t.head == s {
		return
	}
	t.listUnlink(s)
	t.listPushHead(s)
}

// listPushHead links a detached slot at the head of the recency list.
func (t *TLB) listPushHead(s int32) {
	t.prev[s] = noSlot
	t.next[s] = t.head
	if t.head != noSlot {
		t.prev[t.head] = s
	}
	t.head = s
	if t.tail == noSlot {
		t.tail = s
	}
}

// listUnlink detaches slot from the recency list.
func (t *TLB) listUnlink(s int32) {
	p, n := t.prev[s], t.next[s]
	if p != noSlot {
		t.next[p] = n
	} else {
		t.head = n
	}
	if n != noSlot {
		t.prev[n] = p
	} else {
		t.tail = p
	}
	t.prev[s], t.next[s] = noSlot, noSlot
}

// setBase returns the first entry index of page p's set.
func (t *TLB) setBase(p memdef.PageNum) int {
	return int(uint64(p)%uint64(t.sets)) * t.ways
}

// way returns the entry index holding page p in a set-associative TLB, or -1.
func (t *TLB) way(p memdef.PageNum) int {
	base := t.setBase(p)
	for i, q := range t.pages[base : base+t.ways] {
		if q == p {
			return base + i
		}
	}
	return -1
}

// Lookup probes the TLB for page p, updating LRU state and hit/miss counters.
func (t *TLB) Lookup(p memdef.PageNum) bool {
	if t.sets == 1 {
		if i, ok := t.find(p); ok {
			t.listTouch(t.slots[i] - 1)
			t.hits++
			return true
		}
	} else if w := t.way(p); w >= 0 {
		t.tick++
		t.lru[w] = t.tick
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Contains probes without disturbing LRU state or statistics.
func (t *TLB) Contains(p memdef.PageNum) bool {
	if t.sets == 1 {
		_, ok := t.find(p)
		return ok
	}
	return t.way(p) >= 0
}

// Insert fills the entry for p, evicting the LRU way of its set if needed.
// Re-inserting a present page just refreshes its recency.
func (t *TLB) Insert(p memdef.PageNum) {
	if t.sets == 1 {
		t.insertFully(p)
		return
	}
	t.tick++
	base := t.setBase(p)
	v := base
	var victimLRU uint64 = ^uint64(0)
	for i := base; i < base+t.ways; i++ {
		switch {
		case t.pages[i] == p:
			t.lru[i] = t.tick
			return
		case t.pages[i] == invalid:
			v, victimLRU = i, 0
		case t.lru[i] < victimLRU:
			v, victimLRU = i, t.lru[i]
		}
	}
	if t.pages[v] != invalid {
		t.evictions++
	}
	t.pages[v] = p
	t.lru[v] = t.tick
}

// insertFully is Insert for fully-associative geometry: take a free slot,
// else evict the recency tail — the same victim page a min-stamp scan would
// find.
func (t *TLB) insertFully(p memdef.PageNum) {
	if i, ok := t.find(p); ok {
		t.listTouch(t.slots[i] - 1)
		return
	}
	s := t.free
	if s != noSlot {
		t.free = t.next[s]
		t.next[s] = noSlot
	} else {
		s = t.tail
		t.evictions++
		i, _ := t.find(t.pages[s])
		t.remove(i)
		t.listUnlink(s)
	}
	t.pages[s] = p
	t.put(p, s)
	t.listPushHead(s)
}

// Invalidate removes the entry for p if present (TLB shootdown on page
// eviction). It returns whether an entry was removed.
func (t *TLB) Invalidate(p memdef.PageNum) bool {
	if t.sets == 1 {
		i, ok := t.find(p)
		if !ok {
			return false
		}
		s := t.slots[i] - 1
		t.remove(i)
		t.pages[s] = invalid
		t.listUnlink(s)
		t.next[s] = t.free
		t.free = s
	} else {
		w := t.way(p)
		if w < 0 {
			return false
		}
		t.pages[w] = invalid
	}
	t.shootdowns++
	return true
}

// InvalidateChunk removes the entries of every page of chunk c selected by
// mask (the batched TLB shootdown of a chunk eviction), returning the number
// of entries removed. It is Invalidate for each set page of the mask, in page
// order: at most ChunkPages probes, whatever the TLB's size.
func (t *TLB) InvalidateChunk(c memdef.ChunkID, mask memdef.PageBitmap) int {
	n := 0
	for rem := uint16(mask); rem != 0; rem &= rem - 1 {
		if t.Invalidate(c.Page(bits.TrailingZeros16(rem))) {
			n++
		}
	}
	return n
}

// ForEachPage calls fn for every valid entry's page, without disturbing LRU
// state or statistics. Audit/diagnostic use only.
func (t *TLB) ForEachPage(fn func(memdef.PageNum)) {
	for _, p := range t.pages {
		if p != invalid {
			fn(p)
		}
	}
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	fillInvalid(t.pages)
	if t.sets == 1 {
		clear(t.slots)
		t.resetLists()
	}
}

// Stats is a snapshot of TLB counters.
type Stats struct {
	Name       string
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Shootdowns uint64
}

// HitRate returns hits/(hits+misses), or 0 when no lookups happened.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the TLB's counters.
func (t *TLB) Stats() Stats {
	return Stats{Name: t.name, Hits: t.hits, Misses: t.misses, Evictions: t.evictions, Shootdowns: t.shootdowns}
}

// Name returns the diagnostic name.
func (t *TLB) Name() string { return t.name }

// Sets and Ways expose the geometry (used by tests and docs tables).
func (t *TLB) Sets() int { return t.sets }
func (t *TLB) Ways() int { return t.ways }
