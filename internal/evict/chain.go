// Package evict implements the page (chunk) eviction policies studied by the
// paper: LRU, Random, reserved LRU (Ganguly et al. [16]), hierarchical page
// eviction (HPE, Yu et al. [14][15]) and the paper's contribution, MHPE
// (modified HPE, Section IV-B / Algorithm 1).
//
// All policies operate at chunk granularity (16 contiguous 4 KiB pages, the
// 64 KiB basic block) over a shared data structure, the chunk chain: a doubly
// linked list whose tail is the MRU position and whose head is the LRU
// position. Eviction decisions are driven by driver-visible events only —
// far faults, migrations, and (for the policies that use them) the per-chunk
// touch bit vectors maintained by the GMMU.
package evict

import (
	"fmt"

	"github.com/reproductions/cppe/internal/memdef"
)

// Entry is one chunk's node in the chunk chain.
type Entry struct {
	Chunk memdef.ChunkID
	// Counter is HPE's per-chunk touch counter. With prefetching enabled it
	// counts migrated pages (the pollution described in Inefficiency 1).
	Counter int
	// InsertedInterval is the interval in which the chunk was (last)
	// migrated; partition membership is derived from it.
	InsertedInterval int
	// LastRefInterval is the interval of the last driver-visible reference
	// (fault or migration); HPE uses it for its recency partitions.
	LastRefInterval int

	prev, next *Entry
}

// Chain is the doubly linked chunk chain. Head is the LRU end, tail the MRU
// end. It supports O(1) insertion/removal and lookup by chunk.
type Chain struct {
	head, tail *Entry
	index      map[memdef.ChunkID]*Entry
	n          int
	// free chains unused entries (through next) for reuse by newEntry, so
	// insert/remove churn allocates nothing once the chain has reached its
	// peak length. No policy holds an *Entry past Remove.
	free *Entry
}

// entryBlock is the number of entries the pool allocates at once.
const entryBlock = 64

// NewChain returns an empty chain.
func NewChain() *Chain {
	return &Chain{index: make(map[memdef.ChunkID]*Entry)}
}

// Len returns the number of entries.
func (c *Chain) Len() int { return c.n }

// Get returns the entry for chunk id, or nil.
func (c *Chain) Get(id memdef.ChunkID) *Entry { return c.index[id] }

// Head returns the LRU-most entry (nil when empty).
func (c *Chain) Head() *Entry { return c.head }

// Tail returns the MRU-most entry (nil when empty).
func (c *Chain) Tail() *Entry { return c.tail }

// Next returns the neighbour of e toward the MRU end.
func (c *Chain) Next(e *Entry) *Entry { return e.next }

// Prev returns the neighbour of e toward the LRU end.
func (c *Chain) Prev(e *Entry) *Entry { return e.prev }

// PushTail inserts a new entry for id at the MRU end and returns it.
// Inserting a chunk that is already present panics: callers must Remove or
// move entries, never duplicate them.
func (c *Chain) PushTail(id memdef.ChunkID) *Entry {
	e := c.newEntry(id)
	e.prev = c.tail
	if c.tail != nil {
		c.tail.next = e
	} else {
		c.head = e
	}
	c.tail = e
	return e
}

// PushHead inserts a new entry for id at the LRU end and returns it.
func (c *Chain) PushHead(id memdef.ChunkID) *Entry {
	e := c.newEntry(id)
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	} else {
		c.tail = e
	}
	c.head = e
	return e
}

func (c *Chain) newEntry(id memdef.ChunkID) *Entry {
	if _, dup := c.index[id]; dup {
		//cppelint:panicfree duplicate insert is a policy bug the audit ClassChain check also detects; zero-alloc hot path, recovered by the harness into Result.Err
		panic(fmt.Sprintf("evict: chunk %v already in chain", id))
	}
	e := c.free
	if e == nil {
		// Refill the pool with a block of entries, so a growing chain
		// allocates once per entryBlock inserts.
		block := make([]Entry, entryBlock)
		for i := range block[:entryBlock-1] {
			block[i].next = &block[i+1]
		}
		e = &block[0]
	}
	c.free = e.next
	*e = Entry{Chunk: id}
	c.index[id] = e
	c.n++
	return e
}

// Remove unlinks e from the chain and recycles it: callers must not use e
// afterwards.
func (c *Chain) Remove(e *Entry) {
	if c.index[e.Chunk] != e {
		//cppelint:panicfree foreign-entry removal is a policy bug the audit ClassChain check also detects; zero-alloc hot path, recovered by the harness into Result.Err
		panic(fmt.Sprintf("evict: removing foreign entry %v", e.Chunk))
	}
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	delete(c.index, e.Chunk)
	c.n--
	e.prev, e.next = nil, c.free
	c.free = e
}

// MoveToTail makes e the MRU entry.
func (c *Chain) MoveToTail(e *Entry) {
	if c.tail == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	e.next.prev = e.prev // e != tail, so e.next != nil
	// Relink at tail.
	e.prev = c.tail
	e.next = nil
	c.tail.next = e
	c.tail = e
}

// MoveToHead makes e the LRU entry.
func (c *Chain) MoveToHead(e *Entry) {
	if c.head == e {
		return
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev.next = e.next // e != head, so e.prev != nil
	e.next = c.head
	e.prev = nil
	c.head.prev = e
	c.head = e
}

// FromTail returns the i-th entry counting from the MRU end (0 = tail), or
// nil if the chain is shorter.
func (c *Chain) FromTail(i int) *Entry {
	e := c.tail
	for ; e != nil && i > 0; i-- {
		e = e.prev
	}
	return e
}

// Chunks returns the chunk IDs in chain order (head/LRU first). O(n);
// audit and diagnostic use only.
func (c *Chain) Chunks() []memdef.ChunkID {
	out := make([]memdef.ChunkID, 0, c.n)
	for e := c.head; e != nil; e = e.next {
		out = append(out, e.Chunk)
	}
	return out
}

// Position returns the 0-based distance of e from the head (LRU end). O(n);
// used only by tests and diagnostics.
func (c *Chain) Position(e *Entry) int {
	i := 0
	for x := c.head; x != nil; x = x.next {
		if x == e {
			return i
		}
		i++
	}
	return -1
}
