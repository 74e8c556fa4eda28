// Package pagetable implements the 4-level radix page table walked by the
// GPU's page-table walker. It maps virtual pages of the unified address space
// to GPU-resident physical frames; pages without a valid GPU mapping raise a
// far fault that is serviced by the UVM driver (package uvm).
//
// The table is structurally faithful — four 9-bit-indexed levels over a
// 48-bit virtual address, with intermediate directory nodes allocated on
// demand — because the walker's memory traffic (one access per level, each
// eligible to hit in the page-walk cache) is part of the modeled cost.
package pagetable

import (
	"errors"
	"fmt"

	"github.com/reproductions/cppe/internal/memdef"
)

// ErrDoubleMap reports a Map of an already-mapped page: the UVM driver is
// responsible for never double-migrating a page, so this is an integrity
// violation of the driver, surfaced as an audit-class error by the caller.
var ErrDoubleMap = errors.New("pagetable: double map")

// ErrUnmapUnmapped reports an Unmap of a page with no valid mapping, the
// eviction-side counterpart of ErrDoubleMap.
var ErrUnmapUnmapped = errors.New("pagetable: unmap of unmapped page")

// Levels is the radix-tree depth (x86-64-style 4-level table).
const Levels = 4

// bitsPerLevel is the number of VA bits consumed by each level index.
const bitsPerLevel = (memdef.VABits - memdef.PageShift) / Levels // 9

const fanout = 1 << bitsPerLevel

// FrameNum is a GPU physical frame number.
type FrameNum uint64

// InvalidFrame is returned by Lookup for non-resident pages.
const InvalidFrame = FrameNum(^uint64(0))

// PTE is a leaf page-table entry.
type PTE struct {
	Frame FrameNum
	// Dirty is set when the page has been written on the GPU; a dirty page
	// must be transferred back over the interconnect on eviction.
	Dirty bool
}

// node is one directory page of the radix tree.
type node struct {
	children [fanout]*node // interior levels
	// leaves and present are level-0 only, allocated lazily: a node has leaf
	// arrays when len(leaves) > 0. A recycled node keeps their storage at
	// length 0.
	leaves  []PTE
	present []bool
	// id is the node's pseudo physical identity, assigned lazily on the
	// walker's first visit (see nodeID); 0 means not yet assigned. Keeping it
	// in the node replaces a map[*node]uint64 lookup on every walk level.
	id uint64
}

// Table is a 4-level radix page table.
type Table struct {
	root   node
	mapped int
	// nextNodeID assigns each directory node a pseudo physical address so the
	// walker's per-level accesses have distinct cache-visible addresses.
	nextNodeID uint64
	// nodes registers every directory node below the root in allocation
	// order. Reset truncates it; newNode hands the retained nodes out again
	// before allocating, up to the high-water mark of earlier use.
	nodes []*node
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	t.Reset()
	return t
}

// Reset empties the table — no mapping, no directory node, node IDs
// restarting at 1 — keeping its nodes for reuse.
func (t *Table) Reset() {
	*t = Table{nodes: t.nodes[:0]}
}

// newNode returns an empty directory node: a retained one below the
// registry's high-water mark, else a new one.
func (t *Table) newNode() *node {
	i := len(t.nodes)
	if i < cap(t.nodes) {
		if n := t.nodes[:i+1][i]; n != nil {
			t.nodes = t.nodes[:i+1]
			*n = node{leaves: n.leaves[:0], present: n.present[:0]}
			return n
		}
	}
	n := &node{}
	t.nodes = append(t.nodes, n)
	return n
}

// allocLeaves gives n zeroed leaf arrays, reusing retained storage.
func (n *node) allocLeaves() {
	if cap(n.leaves) < fanout {
		n.leaves, n.present = make([]PTE, fanout), make([]bool, fanout)
		return
	}
	n.leaves, n.present = n.leaves[:fanout], n.present[:fanout]
	clear(n.leaves)
	clear(n.present)
}

// indexAt extracts the level-l index (l = Levels-1 is the root) of page p.
func indexAt(p memdef.PageNum, l int) int {
	return int(uint64(p)>>(uint(l)*bitsPerLevel)) & (fanout - 1)
}

// Map installs a virtual-to-physical mapping. Mapping an already-mapped page
// returns ErrDoubleMap (and installs nothing): double migration is a UVM
// driver integrity violation, which the caller fail-stops on.
func (t *Table) Map(p memdef.PageNum, f FrameNum) error {
	n := t.walkAlloc(p)
	i := indexAt(p, 0)
	if n.present[i] {
		return fmt.Errorf("%w: %v", ErrDoubleMap, p)
	}
	n.leaves[i] = PTE{Frame: f}
	n.present[i] = true
	t.mapped++
	return nil
}

// Unmap removes the mapping for p and returns its PTE. Unmapping a page that
// is not mapped returns ErrUnmapUnmapped (and removes nothing), for the same
// driver-invariant reason as Map.
func (t *Table) Unmap(p memdef.PageNum) (PTE, error) {
	n := t.walkNoAlloc(p)
	i := indexAt(p, 0)
	if n == nil || len(n.leaves) == 0 || !n.present[i] {
		return PTE{}, fmt.Errorf("%w: %v", ErrUnmapUnmapped, p)
	}
	pte := n.leaves[i]
	n.leaves[i] = PTE{}
	n.present[i] = false
	t.mapped--
	return pte, nil
}

// Lookup returns the frame for p, or InvalidFrame if p has no GPU mapping.
func (t *Table) Lookup(p memdef.PageNum) FrameNum {
	n := t.walkNoAlloc(p)
	i := indexAt(p, 0)
	if n == nil || len(n.leaves) == 0 || !n.present[i] {
		return InvalidFrame
	}
	return n.leaves[i].Frame
}

// IsMapped reports whether p has a valid GPU mapping.
func (t *Table) IsMapped(p memdef.PageNum) bool { return t.Lookup(p) != InvalidFrame }

// SetDirty marks p dirty. It is a no-op for unmapped pages (a store whose
// page has already been chosen for eviction is replayed later).
func (t *Table) SetDirty(p memdef.PageNum) {
	n := t.walkNoAlloc(p)
	i := indexAt(p, 0)
	if n == nil || len(n.leaves) == 0 || !n.present[i] {
		return
	}
	n.leaves[i].Dirty = true
}

// IsDirty reports whether p is mapped and dirty.
func (t *Table) IsDirty(p memdef.PageNum) bool {
	n := t.walkNoAlloc(p)
	i := indexAt(p, 0)
	if n == nil || len(n.leaves) == 0 || !n.present[i] {
		return false
	}
	return n.leaves[i].Dirty
}

// Mapped returns the number of currently mapped pages.
func (t *Table) Mapped() int { return t.mapped }

// WalkStep describes one level access performed by the hardware walker: the
// pseudo-address of the directory entry read, for page-walk-cache indexing.
type WalkStep struct {
	Level int // Levels-1 (root) down to 0 (leaf)
	// EntryAddr is a synthetic, stable address of the directory entry that
	// this step reads. Distinct nodes get distinct address spaces.
	EntryAddr memdef.VirtAddr
}

// WalkPath returns the Levels directory-entry accesses a hardware walk of p
// performs, root first. The path is defined even for unmapped pages (the walk
// is what discovers the fault); levels whose directory node does not exist
// yet are still charged one access (reading the non-present entry).
func (t *Table) WalkPath(p memdef.PageNum) []WalkStep {
	return t.AppendWalkPath(make([]WalkStep, 0, Levels), p)
}

// AppendWalkPath is WalkPath appending into dst, for callers that reuse a
// step buffer across walks (the page-table walker's hot path).
func (t *Table) AppendWalkPath(dst []WalkStep, p memdef.PageNum) []WalkStep {
	n := &t.root
	for l := Levels - 1; l >= 0; l-- {
		id := t.nodeID(n)
		idx := indexAt(p, l)
		dst = append(dst, WalkStep{
			Level:     l,
			EntryAddr: memdef.VirtAddr(id<<24 | uint64(idx)<<3),
		})
		if l == 0 {
			break
		}
		next := n.children[indexAt(p, l)]
		if next == nil {
			// The remaining levels fault immediately at this level: the
			// walker reads a non-present entry and stops. Charge only the
			// accesses actually made.
			break
		}
		n = next
	}
	return dst
}

// nodeID assigns IDs on first visit — walk order, not allocation order — so
// the pseudo-address stream (and thus PWC behaviour) is identical to the
// historical map-based assignment.
func (t *Table) nodeID(n *node) uint64 {
	if n.id == 0 {
		t.nextNodeID++
		n.id = t.nextNodeID
	}
	return n.id
}

func (t *Table) walkAlloc(p memdef.PageNum) *node {
	n := &t.root
	for l := Levels - 1; l >= 1; l-- {
		i := indexAt(p, l)
		if n.children[i] == nil {
			n.children[i] = t.newNode()
		}
		n = n.children[i]
	}
	if len(n.leaves) == 0 {
		n.allocLeaves()
	}
	return n
}

func (t *Table) walkNoAlloc(p memdef.PageNum) *node {
	n := &t.root
	for l := Levels - 1; l >= 1; l-- {
		n = n.children[indexAt(p, l)]
		if n == nil {
			return nil
		}
	}
	return n
}
