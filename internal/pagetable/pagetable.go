// Package pagetable implements the 4-level radix page table walked by the
// GPU's page-table walker. It maps virtual pages of the unified address space
// to GPU-resident physical frames; pages without a valid GPU mapping raise a
// far fault that is serviced by the UVM driver (package uvm).
//
// The table is structurally faithful — four 9-bit-indexed levels over a
// 48-bit virtual address, with intermediate directory nodes allocated on
// demand — because the walker's memory traffic (one access per level, each
// eligible to hit in the page-walk cache) is part of the modeled cost.
//
// The nodes are packed. A level-0 node is one 4 KB array of 8-byte leaf
// words (present bit, dirty bit, frame). A directory node is one 2 KB array
// of 4-byte child references: the child's position in the table's pool of
// directory nodes (levels 3 to 1) or of leaf nodes (below level 1), plus one,
// with 0 for no child. The two pools are separate, so a recycled table never
// turns a node of one kind into the other.
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

// Leaf word layout: the present and dirty bits on top, the frame below.
const (
	leafPresent = uint64(1) << 63
	leafDirty   = uint64(1) << 62
)

// MaxFrame is the largest frame a leaf word holds. Frame 0 is valid; the
// driver hands out at most one frame per virtual page, far below MaxFrame,
// so Map does not check the bound.
const MaxFrame = FrameNum(leafDirty - 1)

// PTE is a leaf page-table entry, as Unmap reports it.
type PTE struct {
	Frame FrameNum
	// Dirty is set when the page has been written on the GPU; a dirty page
	// must be transferred back over the interconnect on eviction.
	Dirty bool
}

// leaf is a level-0 node: one packed word per page, 0 when not present.
type leaf [fanout]uint64

// dir is a directory node: per entry, the pool position of the child plus
// one, or 0 for no child.
type dir [fanout]uint32

// pool is the registry of one kind of node, in allocation order, with each
// node's walker ID (0 until the walker first visits it; see nodeID). Reset
// truncates it; get hands the retained nodes out again, zeroed, before
// allocating, up to the high-water mark of earlier use.
type pool[T any] struct {
	nodes []*T
	ids   []uint64
}

// get returns a zeroed node and its child reference (pool position + 1).
func (p *pool[T]) get() uint32 {
	i := len(p.nodes)
	if i < cap(p.nodes) && p.nodes[:i+1][i] != nil {
		p.nodes = p.nodes[:i+1]
		var zero T
		*p.nodes[i] = zero
	} else {
		p.nodes = append(p.nodes, new(T))
	}
	p.ids = append(p.ids, 0)
	return uint32(i + 1)
}

func (p *pool[T]) reset() {
	p.nodes = p.nodes[:0]
	p.ids = p.ids[:0]
}

// Table is a 4-level radix page table.
type Table struct {
	root   dir
	rootID uint64
	mapped int
	// nextNodeID assigns each node a pseudo physical address so the walker's
	// per-level accesses have distinct cache-visible addresses.
	nextNodeID uint64
	dirs       pool[dir]  // levels 2 and 1
	leaves     pool[leaf] // level 0
}

// New returns an empty table.
func New() *Table {
	t := &Table{}
	t.Reset()
	return t
}

// Reset empties the table — no mapping, no node below the root, node IDs
// restarting at 1 — keeping its nodes for reuse.
func (t *Table) Reset() {
	t.dirs.reset()
	t.leaves.reset()
	*t = Table{dirs: t.dirs, leaves: t.leaves}
}

// indexAt extracts the level-l index (l = Levels-1 is the root) of page p.
func indexAt(p memdef.PageNum, l int) int {
	return int(uint64(p)>>(uint(l)*bitsPerLevel)) & (fanout - 1)
}

// Map installs a virtual-to-physical mapping. Mapping an already-mapped page
// returns ErrDoubleMap (and installs nothing): double migration is a UVM
// driver integrity violation, which the caller fail-stops on. f must not
// exceed MaxFrame.
func (t *Table) Map(p memdef.PageNum, f FrameNum) error {
	l := t.walkAlloc(p)
	i := indexAt(p, 0)
	if l[i]&leafPresent != 0 {
		return fmt.Errorf("%w: %v", ErrDoubleMap, p)
	}
	l[i] = leafPresent | uint64(f)
	t.mapped++
	return nil
}

// Unmap removes the mapping for p and returns its PTE. Unmapping a page that
// is not mapped returns ErrUnmapUnmapped (and removes nothing), for the same
// driver-invariant reason as Map.
func (t *Table) Unmap(p memdef.PageNum) (PTE, error) {
	w := t.word(p)
	if w == nil || *w&leafPresent == 0 {
		return PTE{}, fmt.Errorf("%w: %v", ErrUnmapUnmapped, p)
	}
	pte := PTE{Frame: FrameNum(*w & uint64(MaxFrame)), Dirty: *w&leafDirty != 0}
	*w = 0
	t.mapped--
	return pte, nil
}

// Lookup returns the frame for p, or InvalidFrame if p has no GPU mapping.
func (t *Table) Lookup(p memdef.PageNum) FrameNum {
	w := t.word(p)
	if w == nil || *w&leafPresent == 0 {
		return InvalidFrame
	}
	return FrameNum(*w & uint64(MaxFrame))
}

// IsMapped reports whether p has a valid GPU mapping.
func (t *Table) IsMapped(p memdef.PageNum) bool { return t.Lookup(p) != InvalidFrame }

// SetDirty marks p dirty. It is a no-op for unmapped pages (a store whose
// page has already been chosen for eviction is replayed later).
func (t *Table) SetDirty(p memdef.PageNum) {
	if w := t.word(p); w != nil && *w&leafPresent != 0 {
		*w |= leafDirty
	}
}

// IsDirty reports whether p is mapped and dirty.
func (t *Table) IsDirty(p memdef.PageNum) bool {
	w := t.word(p)
	return w != nil && *w&(leafPresent|leafDirty) == leafPresent|leafDirty
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
	d, id := &t.root, &t.rootID
	for l := Levels - 1; l >= 0; l-- {
		idx := indexAt(p, l)
		dst = append(dst, WalkStep{
			Level:     l,
			EntryAddr: memdef.VirtAddr(t.nodeID(id)<<24 | uint64(idx)<<3),
		})
		if l == 0 {
			break
		}
		c := d[idx]
		if c == 0 {
			// The remaining levels fault immediately at this level: the
			// walker reads a non-present entry and stops. Charge only the
			// accesses actually made.
			break
		}
		if l == 1 {
			id = &t.leaves.ids[c-1]
		} else {
			d, id = t.dirs.nodes[c-1], &t.dirs.ids[c-1]
		}
	}
	return dst
}

// nodeID assigns IDs on first visit — walk order, not allocation order — so
// the pseudo-address stream (and thus PWC behaviour) is identical to the
// historical map-based assignment.
func (t *Table) nodeID(id *uint64) uint64 {
	if *id == 0 {
		t.nextNodeID++
		*id = t.nextNodeID
	}
	return *id
}

// walkAlloc returns p's leaf node, allocating the missing nodes on its path.
func (t *Table) walkAlloc(p memdef.PageNum) *leaf {
	d := &t.root
	for l := Levels - 1; l >= 2; l-- {
		i := indexAt(p, l)
		if d[i] == 0 {
			d[i] = t.dirs.get()
		}
		d = t.dirs.nodes[d[i]-1]
	}
	i := indexAt(p, 1)
	if d[i] == 0 {
		d[i] = t.leaves.get()
	}
	return t.leaves.nodes[d[i]-1]
}

// word returns p's leaf word, or nil if p's leaf node does not exist.
func (t *Table) word(p memdef.PageNum) *uint64 {
	d := &t.root
	for l := Levels - 1; l >= 2; l-- {
		c := d[indexAt(p, l)]
		if c == 0 {
			return nil
		}
		d = t.dirs.nodes[c-1]
	}
	c := d[indexAt(p, 1)]
	if c == 0 {
		return nil
	}
	return &t.leaves.nodes[c-1][indexAt(p, 0)]
}
