package sm

import (
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
)

// TestL1CacheHitsOnRepeatedAccess: repeated accesses to the same line must
// hit the SM's private L1 after the first.
func TestL1CacheHitsOnRepeatedAccess(t *testing.T) {
	cfg := smallConfig()
	tr := make([]memdef.Op, 10)
	for i := range tr {
		tr[i] = memdef.PackAccess(memdef.Access{Addr: 0x1000})
	}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{tr})
	m.Run(0)
	st := m.SMStats()[0]
	if st.L1Cache.Hits != 9 || st.L1Cache.Misses != 1 {
		t.Fatalf("L1 = %+v, want 9 hits / 1 miss", st.L1Cache)
	}
}

// TestL1CachesArePrivate: the same line accessed from two SMs misses in each
// SM's private L1 but the second miss hits the shared L2.
func TestL1CachesArePrivate(t *testing.T) {
	cfg := smallConfig()
	a := []memdef.Op{memdef.PackAccess(memdef.Access{Addr: 0x1000})}
	b := []memdef.Op{memdef.PackAccess(memdef.Access{Addr: 0x1000})}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{a, b})
	m.Run(0)
	stats := m.SMStats()
	if stats[0].L1Cache.Misses != 1 || stats[1].L1Cache.Misses != 1 {
		t.Fatalf("private L1 sharing: %+v / %+v", stats[0].L1Cache, stats[1].L1Cache)
	}
	l2 := m.L2.Stats()
	if l2.Hits+l2.Misses == 0 {
		t.Fatal("L2 never accessed")
	}
}

// TestDRAMTrafficOnStreaming: a stream larger than the caches must reach
// DRAM; re-reading a cache-sized region must not.
func TestDRAMTrafficOnStreaming(t *testing.T) {
	cfg := smallConfig()
	var tr []memdef.Op
	// Stream 8 MB (beyond the 3 MB L2).
	for a := memdef.VirtAddr(0); a < 8<<20; a += 128 {
		tr = append(tr, memdef.PackAccess(memdef.Access{Addr: a}))
	}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{tr})
	m.Run(0)
	if m.DRAM.Stats().Reads == 0 {
		t.Fatal("streaming never reached DRAM")
	}
}

// TestComputeGapSpacing: with an empty memory system (all hits), a warp's
// throughput is bounded by the compute gap.
func TestComputeGapSpacing(t *testing.T) {
	cfg := smallConfig()
	cfg.ComputeGapCycles = 1000
	tr := make([]memdef.Op, 5)
	for i := range tr {
		tr[i] = memdef.PackAccess(memdef.Access{Addr: 0x2000})
	}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{tr})
	res := m.Run(0)
	// At least (n-1) compute gaps must elapse.
	if res.Cycles < 4*1000 {
		t.Fatalf("cycles = %d, want >= 4000 (compute gap not applied)", res.Cycles)
	}
}

// TestWriteReachesDirtyTracking: a written page must cost a D2H write-back
// when evicted.
func TestWriteReachesDirtyTracking(t *testing.T) {
	cfg := smallConfig()
	cfg.MemoryPages = 2 * memdef.ChunkPages
	tr := []memdef.Op{
		memdef.PackAccess(memdef.Access{Addr: memdef.ChunkID(0).FirstPage().Addr(), Kind: memdef.Write}),
		memdef.PackAccess(memdef.Access{Addr: memdef.ChunkID(1).FirstPage().Addr()}),
		memdef.PackAccess(memdef.Access{Addr: memdef.ChunkID(2).FirstPage().Addr()}), // evicts dirty chunk 0
	}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{tr})
	m.Run(0)
	if m.MMU.Stats().DirtyPagesWrittenBack != 1 {
		t.Fatalf("dirty write-backs = %d", m.MMU.Stats().DirtyPagesWrittenBack)
	}
	if m.Link.Stats().BytesD2H != memdef.PageBytes {
		t.Fatalf("D2H bytes = %d", m.Link.Stats().BytesD2H)
	}
}
