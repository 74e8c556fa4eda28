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
	"math/bits"

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

	// prev and next are the neighbours' positions in the chain (none at
	// the ends); a free entry chains the free list through next.
	prev, next int32
}

// none marks a missing neighbour, an empty chain end or an empty free list.
const none = -1

// Chain is the doubly linked chunk chain. Head is the LRU end, tail the MRU
// end. It supports O(1) insertion/removal and lookup by chunk.
//
// Entries are held by value and linked by position, and a chunk's entry is
// found through a position table indexed by chunk ID (a memdef.ChunkTable),
// so a chain allocates only as it grows: O(log n) times for n chunks, and
// nothing once its length and the span of its chunk IDs have peaked. The
// entries live in blocks that double in size and never move, so growing
// copies none of them and a returned *Entry stays valid until it is
// removed.
type Chain struct {
	// blocks[k] holds the firstBlock<<k entries from position
	// firstBlock*(2^k-1) on; the first used positions have been handed out.
	blocks     [][]Entry
	used       int32
	head, tail int32
	// free chains removed entries (through next) for reuse by newEntry.
	free int32
	n    int
	// pos holds 1 + the position of each chunk's entry. Chunks below
	// denseChunks (64 GiB of virtual address space, a table of at most 4
	// MiB) are indexed directly; every generated footprint lies far below
	// it.
	pos memdef.ChunkTable[int32]
}

const (
	denseChunks = 1 << 20
	// firstBlock is the size of the first entry block; later blocks double.
	firstBlock = 64
)

// NewChain returns an empty chain.
func NewChain() *Chain {
	c := &Chain{head: none, tail: none, free: none}
	c.pos.Reset(0, denseChunks)
	return c
}

// Len returns the number of entries.
func (c *Chain) Len() int { return c.n }

// at returns the entry at position i, or nil for none.
func (c *Chain) at(i int32) *Entry {
	if i == none {
		return nil
	}
	k := bits.Len32(uint32(i)/firstBlock+1) - 1
	return &c.blocks[k][uint32(i)-firstBlock*(1<<k-1)]
}

// find returns the position of chunk id's entry, or none.
func (c *Chain) find(id memdef.ChunkID) int32 { return c.pos.Get(id) - 1 }

// self returns the position of e, an entry in the chain, from its
// neighbours' links.
func (c *Chain) self(e *Entry) int32 {
	if e.prev != none {
		return c.at(e.prev).next
	}
	return c.head
}

// Get returns the entry for chunk id, or nil.
func (c *Chain) Get(id memdef.ChunkID) *Entry { return c.at(c.find(id)) }

// Head returns the LRU-most entry (nil when empty).
func (c *Chain) Head() *Entry { return c.at(c.head) }

// Tail returns the MRU-most entry (nil when empty).
func (c *Chain) Tail() *Entry { return c.at(c.tail) }

// Next returns the neighbour of e toward the MRU end.
func (c *Chain) Next(e *Entry) *Entry { return c.at(e.next) }

// Prev returns the neighbour of e toward the LRU end.
func (c *Chain) Prev(e *Entry) *Entry { return c.at(e.prev) }

// PushTail inserts a new entry for id at the MRU end and returns it.
// Inserting a chunk that is already present panics: callers must Remove or
// move entries, never duplicate them.
func (c *Chain) PushTail(id memdef.ChunkID) *Entry {
	i, e := c.newEntry(id)
	e.prev, e.next = c.tail, none
	if c.tail != none {
		c.at(c.tail).next = i
	} else {
		c.head = i
	}
	c.tail = i
	return e
}

// PushHead inserts a new entry for id at the LRU end and returns it.
func (c *Chain) PushHead(id memdef.ChunkID) *Entry {
	i, e := c.newEntry(id)
	e.prev, e.next = none, c.head
	if c.head != none {
		c.at(c.head).prev = i
	} else {
		c.tail = i
	}
	c.head = i
	return e
}

// newEntry takes an unlinked entry for id from the free list, or the next
// unused position, adding a block twice the size of the last when every
// block is in use, and indexes it.
func (c *Chain) newEntry(id memdef.ChunkID) (int32, *Entry) {
	if c.find(id) != none {
		//cppelint:panicfree duplicate insert is a policy bug the audit ClassChain check also detects; zero-alloc hot path, recovered by the harness into Result.Err
		panic(fmt.Sprintf("evict: chunk %v already in chain", id))
	}
	i := c.free
	if i != none {
		c.free = c.at(i).next
	} else {
		if k := len(c.blocks); c.used == firstBlock*(1<<k-1) {
			c.blocks = append(c.blocks, make([]Entry, firstBlock<<k))
		}
		i = c.used
		c.used++
	}
	e := c.at(i)
	*e = Entry{Chunk: id}
	c.pos.Set(id, i+1)
	c.n++
	return i, e
}

// unlink detaches the entry at position i from its neighbours.
func (c *Chain) unlink(i int32) {
	e := c.at(i)
	if e.prev != none {
		c.at(e.prev).next = e.next
	} else {
		c.head = e.next
	}
	if e.next != none {
		c.at(e.next).prev = e.prev
	} else {
		c.tail = e.prev
	}
}

// Remove unlinks e from the chain and recycles it: callers must not use e
// afterwards.
func (c *Chain) Remove(e *Entry) {
	i := c.find(e.Chunk)
	if i == none || c.at(i) != e {
		//cppelint:panicfree foreign-entry removal is a policy bug the audit ClassChain check also detects; zero-alloc hot path, recovered by the harness into Result.Err
		panic(fmt.Sprintf("evict: removing foreign entry %v", e.Chunk))
	}
	c.unlink(i)
	c.pos.Set(e.Chunk, 0)
	c.n--
	e.prev, e.next = none, c.free
	c.free = i
}

// MoveToTail makes e the MRU entry.
func (c *Chain) MoveToTail(e *Entry) {
	i := c.self(e)
	if c.tail == i {
		return
	}
	c.unlink(i)
	e.prev, e.next = c.tail, none
	c.at(c.tail).next = i // e was not the tail, so the chain has one
	c.tail = i
}

// MoveToHead makes e the LRU entry.
func (c *Chain) MoveToHead(e *Entry) {
	i := c.self(e)
	if c.head == i {
		return
	}
	c.unlink(i)
	e.prev, e.next = none, c.head
	c.at(c.head).prev = i // e was not the head, so the chain has one
	c.head = i
}

// FromTail returns the i-th entry counting from the MRU end (0 = tail), or
// nil if the chain is shorter.
func (c *Chain) FromTail(i int) *Entry {
	e := c.Tail()
	for ; e != nil && i > 0; i-- {
		e = c.Prev(e)
	}
	return e
}

// Chunks returns the chunk IDs in chain order (head/LRU first). O(n);
// audit and diagnostic use only.
func (c *Chain) Chunks() []memdef.ChunkID {
	out := make([]memdef.ChunkID, 0, c.n)
	for e := c.Head(); e != nil; e = c.Next(e) {
		out = append(out, e.Chunk)
	}
	return out
}

// Position returns the 0-based distance of e from the head (LRU end). O(n);
// used only by tests and diagnostics.
func (c *Chain) Position(e *Entry) int {
	i := 0
	for x := c.Head(); x != nil; x = c.Next(x) {
		if x == e {
			return i
		}
		i++
	}
	return -1
}
