package uvm

import (
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/xbus"
)

// chunkPlanner plans the whole faulted chunk into a reused buffer. The
// shipped prefetchers return a fresh slice per Plan (their public contract),
// so this stand-in isolates the driver's own allocations.
type chunkPlanner struct {
	prefetch.None
	buf []memdef.PageNum
}

func (p *chunkPlanner) Plan(page memdef.PageNum, ctx prefetch.Context) []memdef.PageNum {
	p.buf = p.buf[:0]
	for i := 0; i < memdef.ChunkPages; i++ {
		if q := page.Chunk().Page(i); q == page || !ctx.Resident(q) {
			p.buf = append(p.buf, q)
		}
	}
	return p.buf
}

// TestFaultPathAllocFree gates the far-fault path: a warmed manager at a
// small capacity, where every step faults a chunk in, merges two more
// translations into that fault, and evicts a chunk to make room, allocates
// nothing per fault.
func TestFaultPathAllocFree(t *testing.T) {
	eng := engine.New()
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 2
	const capChunks, chunks = 8, 32
	cfg.MemoryPages = capChunks * memdef.ChunkPages
	m := New(eng, cfg, xbus.New(eng, cfg), evict.NewLRU(), &chunkPlanner{}, &flatMem{eng: eng})

	completed := 0
	done := func() { completed++ }
	var next memdef.ChunkID
	step := func() {
		p := next.Page(3)
		next = (next + 1) % chunks
		m.Translate(0, memdef.Access{Addr: p.Addr()}, done)
		m.Translate(1, memdef.Access{Addr: p.Addr(), Kind: memdef.Write}, done)
		m.Translate(1, memdef.Access{Addr: (p + 1).Addr()}, done)
		if _, err := eng.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*chunks; i++ {
		step() // warm every pool, slab, TLB set and page-table node
	}
	before := m.Stats()
	const runs = 2 * chunks
	if a := testing.AllocsPerRun(runs, step); a != 0 {
		t.Errorf("fault -> migrate -> evict: %v allocs per fault, want 0", a)
	}
	s := m.Stats()
	if f := s.FaultEvents - before.FaultEvents; f != runs+1 {
		t.Errorf("measured %d faults, want one per step (%d)", f, runs+1)
	}
	if s.MergedFaults == before.MergedFaults || s.EvictedChunks == before.EvictedChunks {
		t.Errorf("steady state must merge faults and evict: %+v", s)
	}
	if completed != 3*(4*chunks+runs+1) {
		t.Errorf("%d translations completed, want %d", completed, 3*(4*chunks+runs+1))
	}
	if err := m.Failure(); err != nil {
		t.Fatal(err)
	}
}
