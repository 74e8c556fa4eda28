// Package ptw implements the shared, highly-threaded page-table walker and
// its page-walk cache (Table I: 64 concurrent walks over a 4-level table,
// 8 KB 16-way PWC with 10-cycle latency).
//
// A walk proceeds level by level: each level's directory-entry read first
// probes the page-walk cache; a PWC miss issues a memory access through the
// GPU memory hierarchy (the walker is wired to the shared L2 / DRAM by the
// GMMU). A walk that reaches a non-present leaf reports a page fault to its
// caller; the fault itself is handled by the UVM driver, not here.
//
// Walk contexts are pooled: each context owns its stage callbacks (built once
// when the context is first created) and a reusable step buffer, so a walk
// performs no per-level allocation.
package ptw

import (
	"github.com/reproductions/cppe/internal/cache"
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/pagetable"
)

// MemAccessor is the walker's view of the GPU memory hierarchy: an
// asynchronous access that invokes done when the data returns. tag is the
// kind of done's event; accessors pass it to whatever completion event they
// schedule.
type MemAccessor interface {
	Access(a memdef.VirtAddr, kind memdef.AccessKind, tag engine.Tag, done func())
}

// Tag kinds for walker-scheduled events.
const (
	// TagWalkGrant is the semaphore grant that starts a walk.
	TagWalkGrant engine.Tag = 0x0201
	// TagWalkStage is the PWC probe of a walk's current level.
	TagWalkStage engine.Tag = 0x0202
	// TagWalkMem is the PWC-miss memory read completion of a walk.
	TagWalkMem engine.Tag = 0x0203
)

// walkState is one pooled in-flight walk.
type walkState struct {
	w     *Walker
	p     memdef.PageNum
	steps []pagetable.WalkStep
	i     int
	start memdef.Cycle
	done  func(Result)
	next  *walkState

	granted func() // a walker slot was acquired: start the walk
	stage   func() // PWC probe of level steps[i]
	memDone func() // PWC-miss memory read returned
}

// advance moves to the next level, or finishes the walk.
func (x *walkState) advance() {
	x.i++
	if x.i >= len(x.steps) {
		x.w.finish(x)
		return
	}
	x.w.eng.ScheduleTagged(x.w.cfg.PWCLatency, TagWalkStage, x.stage)
}

// Walker is the shared page-table walker.
type Walker struct {
	eng   *engine.Engine
	cfg   memdef.Config
	table *pagetable.Table
	pwc   *cache.Cache
	slots *engine.Semaphore
	mem   MemAccessor
	// states holds every walk context built, free chains the inactive ones.
	// Reset truncates states and newState hands the retained contexts out
	// again, so a reset walker builds none.
	states []*walkState
	free   *walkState

	walks     uint64
	faults    uint64
	pwcHits   uint64
	pwcMisses uint64
	memReads  uint64
	totalLat  memdef.Cycle
}

// New builds a walker over table, issuing PWC-miss reads through mem.
func New(eng *engine.Engine, cfg memdef.Config, table *pagetable.Table, mem MemAccessor) *Walker {
	w := &Walker{
		eng:   eng,
		cfg:   cfg,
		table: table,
		pwc:   cache.New("pwc", cfg.PWCBytes, cfg.PWCWays, cfg.PWCEntryBytes),
		slots: engine.NewSemaphore(eng, cfg.PTWConcurrentWalks),
		mem:   mem,
	}
	w.Reset()
	return w
}

// Reset returns the walker to its constructed state — empty page-walk cache,
// no walk in flight, zeroed counters — keeping its walk contexts for reuse.
// The table it walks is reset by its owner.
func (w *Walker) Reset() {
	w.pwc.Reset()
	w.slots.Reset(w.cfg.PTWConcurrentWalks)
	*w = Walker{
		eng:    w.eng,
		cfg:    w.cfg,
		table:  w.table,
		pwc:    w.pwc,
		slots:  w.slots,
		mem:    w.mem,
		states: w.states[:0],
	}
}

// Result of a completed walk.
type Result struct {
	// Mapped is true when the leaf PTE is valid; false means page fault.
	Mapped bool
	Frame  pagetable.FrameNum
}

// newState returns an idle walk context: a retained one below the high-water
// mark of states, else a new one with its once-allocated stage callbacks.
func (w *Walker) newState() *walkState {
	if i := len(w.states); i < cap(w.states) {
		if x := w.states[:i+1][i]; x != nil {
			w.states = w.states[:i+1]
			*x = walkState{w: w, steps: x.steps[:0], granted: x.granted, stage: x.stage, memDone: x.memDone}
			return x
		}
	}
	x := &walkState{w: w, steps: make([]pagetable.WalkStep, 0, pagetable.Levels)}
	x.granted = func() {
		x.w.walks++
		x.steps = x.w.table.AppendWalkPath(x.steps[:0], x.p)
		x.i = -1
		x.advance()
	}
	x.stage = func() {
		s := x.steps[x.i]
		// Every level access costs one PWC probe.
		if x.w.pwc.Access(s.EntryAddr, memdef.Read).Hit {
			x.w.pwcHits++
			x.advance()
			return
		}
		x.w.pwcMisses++
		x.w.memReads++
		x.w.mem.Access(s.EntryAddr, memdef.Read, TagWalkMem, x.memDone)
	}
	x.memDone = x.advance
	w.states = append(w.states, x)
	return x
}

// get pops (or builds) a walk context.
func (w *Walker) get() *walkState {
	x := w.free
	if x == nil {
		x = w.newState()
	} else {
		w.free = x.next
		x.next = nil
	}
	return x
}

// Walk starts a page-table walk for page p. done is invoked when the walk
// finishes, with the outcome. Walks beyond the concurrency limit queue FIFO.
func (w *Walker) Walk(p memdef.PageNum, done func(Result)) {
	x := w.get()
	x.p = p
	x.done = done
	x.start = w.eng.Now()
	w.slots.AcquireTagged(TagWalkGrant, x.granted)
}

func (w *Walker) finish(x *walkState) {
	w.totalLat += w.eng.Now() - x.start
	frame := w.table.Lookup(x.p)
	res := Result{Mapped: frame != pagetable.InvalidFrame, Frame: frame}
	if !res.Mapped {
		w.faults++
	}
	w.slots.Release()
	done := x.done
	x.done = nil
	x.next = w.free
	w.free = x
	done(res)
}

// Stats is a snapshot of walker counters.
type Stats struct {
	Walks     uint64
	Faults    uint64
	PWCHits   uint64
	PWCMisses uint64
	MemReads  uint64
	// AvgLatency is the mean walk latency in cycles (0 if no walks).
	AvgLatency float64
	PeakWalks  int
}

// Stats returns the counters.
func (w *Walker) Stats() Stats {
	s := Stats{
		Walks:     w.walks,
		Faults:    w.faults,
		PWCHits:   w.pwcHits,
		PWCMisses: w.pwcMisses,
		MemReads:  w.memReads,
		PeakWalks: w.slots.Peak(),
	}
	if w.walks > 0 {
		s.AvgLatency = float64(w.totalLat) / float64(w.walks)
	}
	return s
}
