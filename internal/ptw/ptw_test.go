package ptw

import (
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/pagetable"
)

// fixedMem is a MemAccessor with constant latency.
type fixedMem struct {
	eng *engine.Engine
	lat memdef.Cycle
	n   int
}

func (m *fixedMem) Access(a memdef.VirtAddr, k memdef.AccessKind, tag engine.Tag, done func()) {
	m.n++
	m.eng.ScheduleTagged(m.lat, tag, done)
}

// testWalker gives each walk its own continuation: walk registers fn under
// the next walk ID and the walker's done callback dispatches on that ID.
type testWalker struct {
	*Walker
	fns []func(Result)
}

func newTestWalker(e *engine.Engine, cfg memdef.Config, pt *pagetable.Table, mem MemAccessor) *testWalker {
	tw := &testWalker{}
	tw.Walker = New(e, cfg, pt, mem, func(id uint64, r Result) { tw.fns[id](r) })
	return tw
}

func (tw *testWalker) walk(p memdef.PageNum, fn func(Result)) {
	tw.fns = append(tw.fns, fn)
	tw.Walk(p, uint64(len(tw.fns)-1))
}

func setup(t *testing.T) (*engine.Engine, memdef.Config, *pagetable.Table, *fixedMem, *testWalker) {
	t.Helper()
	e := engine.New()
	cfg := memdef.DefaultConfig()
	pt := pagetable.New()
	mem := &fixedMem{eng: e, lat: 100}
	return e, cfg, pt, mem, newTestWalker(e, cfg, pt, mem)
}

func TestWalkMappedPage(t *testing.T) {
	e, _, pt, _, w := setup(t)
	pt.Map(0x1000, 42)
	var got Result
	e.Schedule(0, func() {
		w.walk(0x1000, func(r Result) { got = r })
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if !got.Mapped || got.Frame != 42 {
		t.Fatalf("result = %+v", got)
	}
	s := w.Stats()
	if s.Walks != 1 || s.Faults != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWalkUnmappedPageFaults(t *testing.T) {
	e, _, _, _, w := setup(t)
	var got Result
	e.Schedule(0, func() {
		w.walk(0x2000, func(r Result) { got = r })
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got.Mapped {
		t.Fatal("unmapped page reported mapped")
	}
	if w.Stats().Faults != 1 {
		t.Fatalf("faults = %d", w.Stats().Faults)
	}
}

func TestColdWalkTouchesAllLevels(t *testing.T) {
	e, _, pt, mem, w := setup(t)
	pt.Map(0x3000, 1)
	e.Schedule(0, func() { w.walk(0x3000, func(Result) {}) })
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if mem.n != pagetable.Levels {
		t.Fatalf("cold walk made %d memory reads, want %d", mem.n, pagetable.Levels)
	}
}

func TestWarmWalkHitsPWC(t *testing.T) {
	e, _, pt, mem, w := setup(t)
	pt.Map(0x3000, 1)
	pt.Map(0x3001, 2) // shares all upper levels with 0x3000
	done := 0
	e.Schedule(0, func() {
		w.walk(0x3000, func(Result) {
			done++
			w.walk(0x3001, func(Result) { done++ })
		})
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatal("walks incomplete")
	}
	// Second walk shares 3 upper levels (PWC hits) and reads only the leaf.
	if mem.n != pagetable.Levels+1 {
		t.Fatalf("memory reads = %d, want %d", mem.n, pagetable.Levels+1)
	}
	s := w.Stats()
	if s.PWCHits != pagetable.Levels-1 {
		t.Fatalf("PWC hits = %d, want %d", s.PWCHits, pagetable.Levels-1)
	}
}

func TestWalkLatencyComposition(t *testing.T) {
	e, cfg, pt, mem, w := setup(t)
	pt.Map(0x5000, 9)
	var finished memdef.Cycle
	e.Schedule(0, func() {
		w.walk(0x5000, func(Result) { finished = e.Now() })
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	// Cold walk: Levels x (PWC probe + memory access).
	want := memdef.Cycle(pagetable.Levels) * (cfg.PWCLatency + mem.lat)
	if finished != want {
		t.Fatalf("walk latency = %d, want %d", finished, want)
	}
}

func TestConcurrencyLimit(t *testing.T) {
	e := engine.New()
	cfg := memdef.DefaultConfig()
	cfg.PTWConcurrentWalks = 2
	pt := pagetable.New()
	mem := &fixedMem{eng: e, lat: 1000}
	w := newTestWalker(e, cfg, pt, mem)
	for i := 0; i < 8; i++ {
		pt.Map(memdef.PageNum(i*512*512), pagetable.FrameNum(i)) // distinct subtrees
	}
	finished := 0
	e.Schedule(0, func() {
		for i := 0; i < 8; i++ {
			w.walk(memdef.PageNum(i*512*512), func(Result) { finished++ })
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if finished != 8 {
		t.Fatalf("finished = %d", finished)
	}
	if w.Stats().PeakWalks != 2 {
		t.Fatalf("peak concurrent walks = %d, want 2", w.Stats().PeakWalks)
	}
}

func TestManyWalksStats(t *testing.T) {
	e, _, pt, _, w := setup(t)
	for i := 0; i < 64; i++ {
		pt.Map(memdef.PageNum(0x8000+i), pagetable.FrameNum(i))
	}
	done := 0
	e.Schedule(0, func() {
		for i := 0; i < 64; i++ {
			w.walk(memdef.PageNum(0x8000+i), func(r Result) {
				if !r.Mapped {
					t.Error("mapped page faulted")
				}
				done++
			})
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if done != 64 {
		t.Fatalf("done = %d", done)
	}
	s := w.Stats()
	if s.Walks != 64 || s.AvgLatency <= 0 {
		t.Fatalf("stats = %+v", s)
	}
	// Pages share a leaf node: PWC locality must be high.
	if s.PWCHits == 0 {
		t.Fatal("no PWC hits across 64 sibling walks")
	}
}
