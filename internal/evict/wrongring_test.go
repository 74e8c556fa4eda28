package evict

import (
	"math/rand"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// TestWrongRingMatchesSet drives the wrong-eviction buffer and a reference
// built from a plain ring and a map through random pushes, faults and
// resizes: every take must agree.
// Chunks repeat, so a chunk pushed twice and the resize that drops slots
// whose chunks stay in the buffer are both exercised.
func TestWrongRingMatchesSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r wrongRing
	r.resize(8)
	ref := struct {
		slots []memdef.ChunkID
		next  int
		in    map[memdef.ChunkID]bool
	}{make([]memdef.ChunkID, 8), 0, map[memdef.ChunkID]bool{}}
	for i := range ref.slots {
		ref.slots[i] = invalidChunk
	}
	chunk := func() memdef.ChunkID {
		if rng.Intn(4) == 0 {
			return 1<<36 + memdef.ChunkID(rng.Intn(40)) // past the dense table
		}
		return memdef.ChunkID(rng.Intn(40))
	}
	for step := 0; step < 50000; step++ {
		switch op := rng.Intn(100); {
		case op < 1:
			n := 1 + rng.Intn(20)
			r.resize(n)
			ref.slots = make([]memdef.ChunkID, n)
			for i := range ref.slots {
				ref.slots[i] = invalidChunk
			}
			ref.next = 0
		case op < 50:
			c := chunk()
			r.push(c)
			if old := ref.slots[ref.next]; old != invalidChunk {
				delete(ref.in, old)
			}
			ref.slots[ref.next] = c
			ref.in[c] = true
			ref.next = (ref.next + 1) % len(ref.slots)
		default:
			c := chunk()
			want := ref.in[c]
			delete(ref.in, c)
			if got := r.take(c); got != want {
				t.Fatalf("step %d: take(%d) = %v, want %v", step, c, got, want)
			}
		}
	}
}
