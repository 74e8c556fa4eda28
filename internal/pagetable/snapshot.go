package pagetable

import (
	"github.com/reproductions/cppe/internal/snapshot"
)

// Encode writes the complete radix tree: per-node pseudo-address IDs, the
// lazily-allocated leaf arrays, and every present PTE. Structure is encoded
// faithfully — including nodes that exist but hold no mappings and leaf
// arrays that are allocated but empty — because the walker's step count and
// PWC address stream depend on which directory nodes exist and which IDs
// they were assigned.
func (t *Table) Encode(w *snapshot.Writer) {
	w.Mark("PGTB")
	w.PutU64(uint64(t.mapped))
	w.PutU64(t.nextNodeID)
	encodeNode(w, &t.root, Levels-1)
}

func encodeNode(w *snapshot.Writer, n *node, level int) {
	w.PutU64(n.id)
	if level == 0 {
		w.PutBool(len(n.leaves) > 0)
		if len(n.leaves) == 0 {
			return
		}
		for i := 0; i < fanout; i++ {
			w.PutBool(n.present[i])
			if n.present[i] {
				w.PutU64(uint64(n.leaves[i].Frame))
				w.PutBool(n.leaves[i].Dirty)
			}
		}
		return
	}
	// Child presence bitmap, fanout bits in index order.
	var word uint64
	for i := 0; i < fanout; i++ {
		if n.children[i] != nil {
			word |= 1 << uint(i&63)
		}
		if i&63 == 63 {
			w.PutU64(word)
			word = 0
		}
	}
	for i := 0; i < fanout; i++ {
		if n.children[i] != nil {
			encodeNode(w, n.children[i], level-1)
		}
	}
}

// Decode rebuilds the tree written by Encode into t, which must be empty.
// The encoded mapped-page count is cross-checked against the number of
// present PTEs actually decoded, so a corrupted tree that still parses is
// rejected.
func (t *Table) Decode(r *snapshot.Reader) {
	r.ExpectMark("PGTB")
	if t.mapped != 0 || t.nextNodeID != 0 {
		r.Failf("pagetable: decode into non-empty table")
		return
	}
	wantMapped := r.GetInt()
	t.nextNodeID = r.GetU64()
	got := t.decodeNode(r, &t.root, Levels-1)
	if r.Err() != nil {
		return
	}
	if wantMapped < 0 || got != wantMapped {
		r.Failf("pagetable: %d present PTEs decoded, header says %d", got, wantMapped)
		return
	}
	t.mapped = got
}

func (t *Table) decodeNode(r *snapshot.Reader, n *node, level int) int {
	n.id = r.GetU64()
	if level == 0 {
		if !r.GetBool() {
			return 0
		}
		n.allocLeaves()
		present := 0
		for i := 0; i < fanout; i++ {
			if r.GetBool() {
				n.present[i] = true
				n.leaves[i] = PTE{Frame: FrameNum(r.GetU64()), Dirty: r.GetBool()}
				present++
			}
			if r.Err() != nil {
				return present
			}
		}
		return present
	}
	var words [fanout / 64]uint64
	for i := range words {
		words[i] = r.GetU64()
	}
	if r.Err() != nil {
		return 0
	}
	present := 0
	for i := 0; i < fanout; i++ {
		if words[i>>6]&(1<<uint(i&63)) == 0 {
			continue
		}
		child := t.newNode()
		n.children[i] = child
		present += t.decodeNode(r, child, level-1)
		if r.Err() != nil {
			return present
		}
	}
	return present
}
