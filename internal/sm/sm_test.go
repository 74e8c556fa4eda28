package sm

import (
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
)

func smallConfig() memdef.Config {
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 4
	cfg.WarpsPerSM = 2
	return cfg
}

// seqTrace builds a sequential read trace over n pages, one access per page.
func seqTrace(startPage, n int) []memdef.Op {
	tr := make([]memdef.Op, n)
	for i := range tr {
		tr[i] = memdef.PackAccess(memdef.Access{Addr: memdef.PageNum(startPage + i).Addr()})
	}
	return tr
}

func TestMachineRunsToCompletion(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{
		seqTrace(0, 64),
	})
	res := m.Run(0)
	if res.Crashed {
		t.Fatal("crashed")
	}
	if res.Accesses != 64 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
	if res.Cycles == 0 {
		t.Fatal("zero cycles")
	}
	if m.ActiveWarps() != 0 {
		t.Fatalf("active warps = %d", m.ActiveWarps())
	}
}

func TestTooManyTracesPanics(t *testing.T) {
	cfg := smallConfig() // 8 warps
	traces := make([][]memdef.Op, 9)
	for i := range traces {
		traces[i] = seqTrace(i*100, 1)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic for too many traces")
		}
	}()
	NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), traces)
}

func TestPrefetchingAmortizesFaults(t *testing.T) {
	// One warp streaming 4 chunks page by page: with the locality
	// prefetcher there are 4 fault events; without prefetch, 64.
	cfg := smallConfig()
	trace := seqTrace(0, 4*memdef.ChunkPages)

	with := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{trace})
	resWith := with.Run(0)
	without := NewMachine(cfg, evict.NewLRU(), prefetch.NewNone(), [][]memdef.Op{trace})
	resWithout := without.Run(0)

	fw := with.MMU.Stats().FaultEvents
	fwo := without.MMU.Stats().FaultEvents
	if fw != 4 || fwo != 64 {
		t.Fatalf("fault events = %d with / %d without; want 4 / 64", fw, fwo)
	}
	if resWith.Cycles >= resWithout.Cycles {
		t.Fatalf("prefetching did not speed up streaming: %d vs %d cycles", resWith.Cycles, resWithout.Cycles)
	}
	// The speedup should be large: 64 serial faults vs 4.
	if float64(resWithout.Cycles)/float64(resWith.Cycles) < 4 {
		t.Fatalf("speedup = %.2f, want > 4x", float64(resWithout.Cycles)/float64(resWith.Cycles))
	}
}

func TestWarpsOverlapFaults(t *testing.T) {
	// Two warps faulting on different chunks: their 20us services overlap,
	// so the total time is far below 2x the single-warp time.
	cfg := smallConfig()
	one := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{
		seqTrace(0, 16),
	})
	r1 := one.Run(0)

	two := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{
		seqTrace(0, 16),
		seqTrace(1024, 16),
	})
	r2 := two.Run(0)

	if float64(r2.Cycles) > 1.5*float64(r1.Cycles) {
		t.Fatalf("two independent warps took %d vs %d: faults not overlapped", r2.Cycles, r1.Cycles)
	}
}

func TestOversubscriptionCausesEvictions(t *testing.T) {
	cfg := smallConfig()
	// Footprint 8 chunks, capacity 4 chunks (50%).
	cfg.MemoryPages = 4 * memdef.ChunkPages
	trace := seqTrace(0, 8*memdef.ChunkPages)
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{trace})
	m.SetFootprint(8 * memdef.ChunkPages)
	res := m.Run(0)
	if res.Crashed {
		t.Fatal("streaming should not crash")
	}
	s := m.MMU.Stats()
	if s.EvictedChunks != 4 {
		t.Fatalf("evicted chunks = %d, want 4", s.EvictedChunks)
	}
}

func TestCrashDetectionOnPathologicalThrash(t *testing.T) {
	cfg := smallConfig()
	cfg.MemoryPages = 2 * memdef.ChunkPages
	cfg.ThrashAbortFactor = 4
	// A warp cycling over 3 chunks forever-ish: every access faults, each
	// fault evicts; eviction traffic rapidly exceeds 4x footprint.
	var trace []memdef.Op
	for round := 0; round < 200; round++ {
		for c := 0; c < 3; c++ {
			trace = append(trace, memdef.PackAccess(memdef.Access{Addr: memdef.ChunkID(c).FirstPage().Addr()}))
		}
	}
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{trace})
	m.SetFootprint(3 * memdef.ChunkPages)
	res := m.Run(0)
	if !res.Crashed {
		t.Fatal("pathological thrash not detected")
	}
}

func TestSMStatsAccounting(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{
		seqTrace(0, 10),
		seqTrace(512, 10),
	})
	m.Run(0)
	stats := m.SMStats()
	if len(stats) != cfg.NumSMs {
		t.Fatalf("stats for %d SMs", len(stats))
	}
	var total uint64
	for _, s := range stats {
		total += s.AccessesDone
	}
	if total != 20 {
		t.Fatalf("total accesses = %d", total)
	}
	// Traces 0 and 1 go to SMs 0 and 1 (round robin).
	if stats[0].AccessesDone != 10 || stats[1].AccessesDone != 10 {
		t.Fatalf("round-robin assignment broken: %+v", stats)
	}
}

func TestEmptyTraceIgnored(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{
		nil,
		seqTrace(0, 5),
	})
	res := m.Run(0)
	if res.Accesses != 5 {
		t.Fatalf("accesses = %d", res.Accesses)
	}
}

func TestEventBudgetMarksCrash(t *testing.T) {
	cfg := smallConfig()
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), [][]memdef.Op{
		seqTrace(0, 10000),
	})
	res := m.Run(100) // absurdly small budget
	if !res.Crashed {
		t.Fatal("budget exhaustion not surfaced as crash")
	}
}
