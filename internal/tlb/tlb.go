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

// entry is one TLB slot.
type entry struct {
	page  memdef.PageNum
	valid bool
	lru   uint64 // larger = more recently used
}

// Index slot states for the open-addressed page index.
const (
	idxEmpty uint8 = iota
	idxFull
	idxTombstone
)

// noSlot marks an empty list link.
const noSlot int32 = -1

// TLB is a set-associative, LRU-replacement translation cache.
//
// Two acceleration structures sit alongside the entry array; both are pure
// derived state and leave hit/miss/eviction/shootdown counters, LRU victim
// choices, and lru stamps bit-identical to the plain scanning implementation:
//
//   - A linear-probing open-addressed page->slot index makes Lookup,
//     Contains, Invalidate, and Insert's presence check O(1) probes instead
//     of O(ways) scans — material for the fully-associative L1, whose single
//     set spans the whole array. Probing is plain arithmetic on
//     deterministic keys (no Go map, nothing iterated).
//
//   - For fully-associative geometry (sets == 1), a doubly-linked recency
//     list replaces Insert's O(entries) min-lru victim scan: every touch
//     moves the slot to the list head, so the tail is exactly the entry the
//     scan would pick (lru ticks are unique), and a free list hands out
//     unused slots without searching.
type TLB struct {
	name    string
	sets    int
	ways    int
	entries []entry // sets x ways, row-major
	tick    uint64

	// Open-addressed page index (all geometries).
	idxKeys  []memdef.PageNum
	idxSlots []int32
	idxState []uint8
	idxMask  uint64
	idxShift uint
	idxDead  int

	// Recency + free lists (fully associative only; next doubles as the
	// free-list link for invalid slots).
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
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry %d entries / %d ways", entries, ways))
	}
	t := &TLB{
		name: name,
		sets: entries / ways,
		ways: ways,
	}
	t.Reset()
	return t
}

// Reset empties the TLB — no valid entry, LRU clock and counters at zero —
// keeping its name, geometry and storage.
func (t *TLB) Reset() {
	entries := t.sets * t.ways
	// Index capacity: power-of-two, at least 4x entries, so the probe load
	// factor stays at or below 1/4.
	idxCap := 1
	for idxCap < 4*entries {
		idxCap <<= 1
	}
	*t = TLB{
		name:     t.name,
		sets:     t.sets,
		ways:     t.ways,
		entries:  zeroed(t.entries, entries),
		idxKeys:  zeroed(t.idxKeys, idxCap),
		idxSlots: zeroed(t.idxSlots, idxCap),
		idxState: zeroed(t.idxState, idxCap),
		idxMask:  uint64(idxCap - 1),
		idxShift: uint(64 - bits.TrailingZeros(uint(idxCap))),
		prev:     t.prev,
		next:     t.next,
	}
	if t.sets == 1 {
		t.prev = zeroed(t.prev, entries)
		t.next = zeroed(t.next, entries)
		t.resetLists()
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

// idxHome is the preferred probe position of page p (Fibonacci hashing: the
// top bits of the product are well-mixed even for sequential page numbers).
func (t *TLB) idxHome(p memdef.PageNum) uint64 {
	return (uint64(p) * 0x9E3779B97F4A7C15) >> t.idxShift
}

// idxGet returns the entry slot holding page p, if the index knows it.
func (t *TLB) idxGet(p memdef.PageNum) (int32, bool) {
	for i := t.idxHome(p); ; i = (i + 1) & t.idxMask {
		switch t.idxState[i] {
		case idxEmpty:
			return 0, false
		case idxFull:
			if t.idxKeys[i] == p {
				return t.idxSlots[i], true
			}
		}
	}
}

// idxPut records page p at entry slot. p must not be present.
func (t *TLB) idxPut(p memdef.PageNum, slot int32) {
	i := t.idxHome(p)
	for t.idxState[i] == idxFull {
		i = (i + 1) & t.idxMask
	}
	if t.idxState[i] == idxTombstone {
		t.idxDead--
	}
	t.idxKeys[i] = p
	t.idxSlots[i] = slot
	t.idxState[i] = idxFull
}

// idxDel removes page p from the index, rebuilding the table when tombstones
// pile up (they lengthen every subsequent probe chain).
func (t *TLB) idxDel(p memdef.PageNum) {
	for i := t.idxHome(p); ; i = (i + 1) & t.idxMask {
		switch t.idxState[i] {
		case idxEmpty:
			return
		case idxFull:
			if t.idxKeys[i] == p {
				t.idxState[i] = idxTombstone
				t.idxDead++
				if uint64(t.idxDead)*4 > t.idxMask+1 {
					t.idxRebuild()
				}
				return
			}
		}
	}
}

// idxRebuild repopulates the index from the entry array (the source of
// truth), clearing all tombstones.
func (t *TLB) idxRebuild() {
	clear(t.idxState)
	t.idxDead = 0
	for s := range t.entries {
		if t.entries[s].valid {
			t.idxPut(t.entries[s].page, int32(s))
		}
	}
}

// listTouch moves slot to the head of the recency list (fully associative
// geometry only).
func (t *TLB) listTouch(s int32) {
	if t.head == s {
		return
	}
	// Unlink (s is in the chain, so it has a prev or is the head).
	p, n := t.prev[s], t.next[s]
	if p != noSlot {
		t.next[p] = n
	}
	if n != noSlot {
		t.prev[n] = p
	}
	if t.tail == s {
		t.tail = p
	}
	// Relink at head.
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

func (t *TLB) setOf(p memdef.PageNum) int { return int(uint64(p) % uint64(t.sets)) }

// Lookup probes the TLB for page p, updating LRU state and hit/miss counters.
func (t *TLB) Lookup(p memdef.PageNum) bool {
	if i, ok := t.idxGet(p); ok {
		t.tick++
		t.entries[i].lru = t.tick
		if t.sets == 1 {
			t.listTouch(i)
		}
		t.hits++
		return true
	}
	t.misses++
	return false
}

// Contains probes without disturbing LRU state or statistics.
func (t *TLB) Contains(p memdef.PageNum) bool {
	_, ok := t.idxGet(p)
	return ok
}

// Insert fills the entry for p, evicting the LRU way of its set if needed.
// Re-inserting a present page just refreshes its recency.
func (t *TLB) Insert(p memdef.PageNum) {
	t.tick++
	if i, ok := t.idxGet(p); ok {
		t.entries[i].lru = t.tick
		if t.sets == 1 {
			t.listTouch(i)
		}
		return
	}
	var victim int32
	if t.sets == 1 {
		// Fully associative: take a free slot, else evict the recency tail —
		// the same victim page the min-lru scan would find.
		if t.free != noSlot {
			victim = t.free
			t.free = t.next[victim]
			t.next[victim] = noSlot
		} else {
			victim = t.tail
			t.evictions++
			// Invalidate before idxDel: a tombstone-triggered index rebuild
			// repopulates from the entry array and must not resurrect the
			// page being evicted.
			old := t.entries[victim].page
			t.entries[victim].valid = false
			t.idxDel(old)
			t.listUnlink(victim)
		}
		t.entries[victim] = entry{page: p, valid: true, lru: t.tick}
		t.idxPut(p, victim)
		t.listPushHead(victim)
		return
	}
	base := t.setOf(p) * t.ways
	v := base
	var victimLRU uint64 = ^uint64(0)
	for i := 0; i < t.ways; i++ {
		e := &t.entries[base+i]
		if !e.valid {
			v = base + i
			victimLRU = 0
			continue
		}
		if e.lru < victimLRU {
			v = base + i
			victimLRU = e.lru
		}
	}
	if t.entries[v].valid {
		t.evictions++
		// Invalidate before idxDel (see the fully-associative path).
		old := t.entries[v].page
		t.entries[v].valid = false
		t.idxDel(old)
	}
	t.entries[v] = entry{page: p, valid: true, lru: t.tick}
	t.idxPut(p, int32(v))
}

// Invalidate removes the entry for p if present (TLB shootdown on page
// eviction). It returns whether an entry was removed.
func (t *TLB) Invalidate(p memdef.PageNum) bool {
	i, ok := t.idxGet(p)
	if !ok {
		return false
	}
	t.dropSlot(i)
	t.shootdowns++
	return true
}

// dropSlot invalidates entry slot i, maintaining the index and, for fully
// associative geometry, returning the slot to the free list.
func (t *TLB) dropSlot(i int32) {
	// Invalidate before idxDel: a tombstone-triggered rebuild repopulates
	// from the entry array and must not resurrect this page.
	t.entries[i].valid = false
	t.idxDel(t.entries[i].page)
	if t.sets == 1 {
		t.listUnlink(i)
		t.next[i] = t.free
		t.free = i
	}
}

// InvalidateChunk removes the entries of every page of chunk c selected by
// mask (the batched TLB shootdown of a chunk eviction), returning the number
// of entries removed. It is exactly equivalent to calling Invalidate for each
// set page of the mask — same entries removed, same shootdown count, LRU
// state untouched — but for a fully-associative TLB it makes one pass over
// the entry array instead of a probe per mask page.
func (t *TLB) InvalidateChunk(c memdef.ChunkID, mask memdef.PageBitmap) int {
	if mask == 0 {
		return 0
	}
	n := 0
	if t.sets == 1 {
		// Fully associative: every page lives in the single set, so one scan
		// covers all shootdowns of the batch.
		for i := range t.entries {
			e := &t.entries[i]
			if e.valid && e.page.Chunk() == c && mask.Has(e.page.Index()) {
				t.dropSlot(int32(i))
				t.shootdowns++
				n++
			}
		}
		return n
	}
	for idx := 0; idx < memdef.ChunkPages; idx++ {
		if mask.Has(idx) && t.Invalidate(c.Page(idx)) {
			n++
		}
	}
	return n
}

// ForEachPage calls fn for every valid entry's page, without disturbing LRU
// state or statistics. Audit/diagnostic use only.
func (t *TLB) ForEachPage(fn func(memdef.PageNum)) {
	for i := range t.entries {
		if t.entries[i].valid {
			fn(t.entries[i].page)
		}
	}
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].valid = false
	}
	clear(t.idxState)
	t.idxDead = 0
	if t.sets == 1 {
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
