package evict

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// BenchmarkChainOps measures the chunk chain's steady-state churn: insert at
// MRU, remove a victim from LRU.
func BenchmarkChainOps(b *testing.B) {
	c := NewChain()
	for i := 0; i < 512; i++ {
		c.PushTail(memdef.ChunkID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := c.Head()
		c.Remove(v)
		c.PushTail(memdef.ChunkID(512 + i))
		// Keep the id space from colliding with live entries.
		if e := c.Get(memdef.ChunkID(512 + i - 512)); e != nil {
			_ = e
		}
	}
}

// BenchmarkChainOpsFar is BenchmarkChainOps with chunk IDs past the dense
// position table, as a trace with addresses at or above 64 GiB has.
func BenchmarkChainOpsFar(b *testing.B) {
	const first = memdef.ChunkID(1) << 40
	c := NewChain()
	for i := 0; i < 512; i++ {
		c.PushTail(first + memdef.ChunkID(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Remove(c.Head())
		c.PushTail(first + memdef.ChunkID(512+i))
	}
}

// BenchmarkMHPESteadyState measures MHPE's full event cycle at a realistic
// chain length: fault, migrate, select victim, evict.
func BenchmarkMHPESteadyState(b *testing.B) {
	m := NewMHPE(MHPEOptions{})
	for i := 0; i < 512; i++ {
		m.OnMigrate(memdef.ChunkID(i), memdef.FullBitmap)
	}
	next := memdef.ChunkID(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnFault(next)
		v, ok := m.SelectVictim(noneExcluded)
		if !ok {
			b.Fatal("no victim")
		}
		m.OnEvicted(v, i%16)
		m.OnMigrate(next, memdef.FullBitmap)
		next++
	}
}

// BenchmarkLRUSteadyState is the baseline policy's equivalent loop.
func BenchmarkLRUSteadyState(b *testing.B) {
	l := NewLRU()
	for i := 0; i < 512; i++ {
		l.OnMigrate(memdef.ChunkID(i), memdef.FullBitmap)
	}
	next := memdef.ChunkID(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.OnFault(next)
		v, ok := l.SelectVictim(noneExcluded)
		if !ok {
			b.Fatal("no victim")
		}
		l.OnEvicted(v, 0)
		l.OnMigrate(next, memdef.FullBitmap)
		next++
	}
}
