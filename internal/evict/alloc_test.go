package evict

import (
	"math/bits"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// TestChainChurnAllocFree gates entry recycling: at a steady chain length,
// evicting the LRU entry and inserting a new chunk allocates nothing, with
// chunk IDs that grow without bound both inside the dense position table and
// past it.
func TestChainChurnAllocFree(t *testing.T) {
	for _, first := range []memdef.ChunkID{0, 1 << 40} {
		c := NewChain()
		const n = 256
		next := first
		for ; next < first+n; next++ {
			c.PushTail(next)
		}
		churn := func() {
			c.Remove(c.Head())
			c.PushTail(next)
			next++
		}
		for i := 0; i < 4*n; i++ {
			churn() // warm the chunk index
		}
		if a := testing.AllocsPerRun(1000, churn); a != 0 {
			t.Errorf("first chunk %d: push/remove churn: %v allocs per cycle, want 0", first, a)
		}
		if c.Len() != n || c.Head().Chunk != next-n {
			t.Errorf("first chunk %d: after churn: len %d head %v, want %d and %v", first, c.Len(), c.Head().Chunk, n, next-n)
		}
	}
}

// TestChainGrowthAllocs gates the chain's growth: n pushes and n removes
// allocate O(log n) times (entry blocks and the position table double), and
// refilling the emptied chain allocates nothing.
func TestChainGrowthAllocs(t *testing.T) {
	for _, n := range []int{100, 1 << 10, 1 << 14} {
		var c *Chain
		fill := func() {
			for i := 0; i < n; i++ {
				c.PushTail(memdef.ChunkID(i))
			}
			for c.Len() > 0 {
				c.Remove(c.Head())
			}
		}
		fresh := func() {
			c = NewChain()
			fill()
		}
		limit := 2 * bits.Len(uint(n))
		if a := testing.AllocsPerRun(1, fresh); a > float64(limit) {
			t.Errorf("n=%d: %v allocs for n pushes and removes, want at most %d", n, a, limit)
		}
		if a := testing.AllocsPerRun(3, fill); a != 0 {
			t.Errorf("n=%d: refilling an emptied chain made %v allocs, want 0", n, a)
		}
	}
}
