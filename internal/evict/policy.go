package evict

import "github.com/reproductions/cppe/internal/memdef"

// Policy is the driver's eviction policy. The UVM manager (package uvm)
// invokes it with driver-visible events and asks it for victims when GPU
// memory is full.
//
// Event contract, in the order the manager guarantees:
//
//   - OnFault(c) fires when a far fault targets a page of chunk c, before any
//     migration planning for that fault.
//   - OnMigrate(c, pages) fires when pages of chunk c become resident
//     (possibly adding to an already partially resident chunk).
//   - OnTouch(c, idx) fires on the first GPU access of each resident page.
//   - SelectVictim is called when frames are needed; the policy must return a
//     chunk for which excluded() is false.
//   - OnEvicted(c, untouch) fires when chunk c is actually evicted; untouch
//     is the number of migrated-but-never-touched pages it had (0..16).
type Policy interface {
	// Name returns a short identifier ("lru", "mhpe", ...).
	Name() string
	OnFault(c memdef.ChunkID)
	OnMigrate(c memdef.ChunkID, pages memdef.PageBitmap)
	OnTouch(c memdef.ChunkID, pageIdx int)
	SelectVictim(excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool)
	OnEvicted(c memdef.ChunkID, untouch int)
}

// Tracked is the optional enumeration interface the integrity auditor uses
// to cross-check a policy's bookkeeping against UVM residency: every tracked
// chunk must be resident and every resident chunk tracked. All repository
// policies implement it.
type Tracked interface {
	// TrackedChunks returns the chunks the policy currently tracks as
	// resident, in the policy's own order. Audit/diagnostic use only.
	TrackedChunks() []memdef.ChunkID
}

// Strategy identifies the search direction used within the chunk chain.
type Strategy int

const (
	// StrategyLRU selects from the LRU (head) end.
	StrategyLRU Strategy = iota
	// StrategyMRU selects from the MRU (tail) end of the old partition.
	StrategyMRU
)

func (s Strategy) String() string {
	if s == StrategyMRU {
		return "MRU"
	}
	return "LRU"
}

// invalidChunk is a sentinel for empty wrong-eviction-buffer slots; it can
// never collide with a real chunk because a real ChunkID fits in
// VABits-PageShift-ChunkShift = 32 bits.
const invalidChunk = ^memdef.ChunkID(0)

// selectFromHead returns the first non-excluded entry scanning LRU -> MRU.
func selectFromHead(ch *Chain, excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	for e := ch.Head(); e != nil; e = ch.Next(e) {
		if !excluded(e.Chunk) {
			return e.Chunk, true
		}
	}
	return 0, false
}

// wrongRing is the wrong-eviction buffer MHPE and HPE keep: a FIFO ring of
// recently evicted chunks and the set of chunks in the buffer. A fault
// takes a chunk out of the set; a push overwrites the oldest slot and takes
// that slot's chunk out of the set first, so a chunk evicted twice leaves
// the buffer with its older slot.
type wrongRing struct {
	slots []memdef.ChunkID
	next  int
	in    memdef.ChunkTable[bool]
}

// resize gives the ring n empty slots, the first time with an empty set.
// The chunks already in the buffer stay there until a fault takes them out:
// their slots are gone, so no push does.
func (r *wrongRing) resize(n int) {
	if r.slots == nil {
		r.in.Reset(0, denseChunks)
	}
	r.slots = make([]memdef.ChunkID, n)
	for i := range r.slots {
		r.slots[i] = invalidChunk
	}
	r.next = 0
}

// push records the eviction of c in the oldest slot.
func (r *wrongRing) push(c memdef.ChunkID) {
	if old := r.slots[r.next]; old != invalidChunk {
		r.in.Set(old, false)
	}
	r.slots[r.next] = c
	r.in.Set(c, true)
	r.next = (r.next + 1) % len(r.slots)
}

// take reports whether c is in the buffer and takes it out.
func (r *wrongRing) take(c memdef.ChunkID) bool {
	if !r.in.Get(c) {
		return false
	}
	r.in.Set(c, false)
	return true
}
