package evict

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// TestChainChurnAllocFree gates entry recycling: at a steady chain length,
// evicting the LRU entry and inserting a new chunk allocates nothing.
func TestChainChurnAllocFree(t *testing.T) {
	c := NewChain()
	const n = 256
	for i := 0; i < n; i++ {
		c.PushTail(memdef.ChunkID(i))
	}
	next := memdef.ChunkID(n)
	churn := func() {
		c.Remove(c.Head())
		c.PushTail(next)
		next++
	}
	for i := 0; i < 4*n; i++ {
		churn() // warm the chunk index
	}
	if a := testing.AllocsPerRun(1000, churn); a != 0 {
		t.Errorf("push/remove churn: %v allocs per cycle, want 0", a)
	}
	if c.Len() != n || c.Head().Chunk != next-n {
		t.Errorf("after churn: len %d head %v, want %d and %v", c.Len(), c.Head().Chunk, n, next-n)
	}
}
