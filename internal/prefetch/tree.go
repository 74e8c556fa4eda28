package prefetch

import (
	"github.com/reproductions/cppe/internal/memdef"
)

// treeSpanChunks is the largest prefetch neighborhood: a 2 MiB allocation
// block = 32 chunks of 64 KiB, matching the tree the NVIDIA driver builds
// over each 2 MiB region (Ganguly et al. [16]).
const treeSpanChunks = 32

// Tree is the tree-based neighborhood prefetcher: each 2 MiB region is a full
// binary tree whose leaves are 64 KiB basic blocks. A fault migrates its
// basic block; then, walking from the leaf toward the root, whenever more
// than half of a node's leaves have been fetched, the rest of that node's
// subtree is prefetched too.
//
// The paper discusses it as the CUDA driver's strategy; here it serves as an
// ablation alternative to the locality prefetcher.
type Tree struct {
	// fetched tracks chunks with at least one resident page.
	fetched map[memdef.ChunkID]bool
}

// NewTree returns a tree-based prefetcher.
func NewTree() *Tree {
	return &Tree{fetched: make(map[memdef.ChunkID]bool)}
}

// Name implements Prefetcher.
func (t *Tree) Name() string { return "tree" }

// Plan migrates the faulted basic block, then expands up the tree while the
// majority rule holds.
func (t *Tree) Plan(dst []memdef.PageNum, p memdef.PageNum, ctx Context) []memdef.PageNum {
	c := p.Chunk()
	// Every subtree walked below lies inside the faulted 2 MiB region, so the
	// planned set is a bit per chunk of that region.
	region := memdef.ChunkID(uint64(c) / treeSpanChunks * treeSpanChunks)
	var planned [treeSpanChunks]bool
	planned[c-region] = true

	// Walk up: node sizes 2, 4, 8, 16, 32 chunks.
	for span := 2; span <= treeSpanChunks; span *= 2 {
		base := memdef.ChunkID(uint64(c) / uint64(span) * uint64(span))
		have := 0
		for i := 0; i < span; i++ {
			cc := base + memdef.ChunkID(i)
			if t.fetched[cc] || planned[cc-region] {
				have++
			}
		}
		if have*2 <= span {
			// This node is not majority-fetched, but a higher node may
			// still be (e.g. 3 of 4 when only 1 of this pair is fetched),
			// so keep walking toward the root.
			continue
		}
		for i := 0; i < span; i++ {
			cc := base + memdef.ChunkID(i)
			if !t.fetched[cc] {
				planned[cc-region] = true
			}
		}
	}

	// Materialize: ascending page order over the planned chunks of the
	// region.
	for i, ok := range planned {
		if !ok {
			continue
		}
		cc := region + memdef.ChunkID(i)
		for j := 0; j < memdef.ChunkPages; j++ {
			q := cc.Page(j)
			if q == p || !ctx.Resident(q) {
				dst = append(dst, q)
			}
		}
	}
	return dst
}

// OnMigrate marks chunks as fetched.
func (t *Tree) OnMigrate(pages []memdef.PageNum) {
	for _, p := range pages {
		t.fetched[p.Chunk()] = true
	}
}

// OnEvict forgets the chunk.
func (t *Tree) OnEvict(c memdef.ChunkID, touched memdef.PageBitmap, untouch int) {
	delete(t.fetched, c)
}
