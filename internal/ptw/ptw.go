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
// Walk contexts are pooled and carved out of slabs, each with an inline step
// array. The grant and stage events are two walker-wide callbacks keyed by
// the context's registry index, and every finished walk reports to one
// walker-wide done callback with the ID its caller passed, so a walk
// performs no allocation once the pool is warm.
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

// walkState is one pooled in-flight walk. Its registry index is the
// argument of its grant and stage events.
type walkState struct {
	idx   uint64 // index in Walker.states, stable for the walker's lifetime
	p     memdef.PageNum
	id    uint64 // the caller's walk ID, passed back to Walker.done
	steps [pagetable.Levels]pagetable.WalkStep
	n     int // steps in use
	i     int
	start memdef.Cycle
	next  *walkState

	// memDone is the PWC-miss read's completion: the one per-context
	// closure left, because MemAccessor.Access takes a func().
	memDone func()
}

// Walker is the shared page-table walker.
type Walker struct {
	eng   *engine.Engine
	cfg   memdef.Config
	table *pagetable.Table
	pwc   *cache.Cache
	slots *engine.Semaphore
	mem   MemAccessor
	// done receives every finished walk: the ID its Walk call passed and
	// the outcome.
	done func(id uint64, r Result)
	// grantFn and stageFn are the grant and stage events of the walk context
	// their argument indexes, shared by every context.
	grantFn, stageFn func(uint64)
	// states holds every walk context built, free chains the inactive ones.
	// Contexts are carved out of slab. Reset truncates states and newState
	// hands the retained contexts out again, so a reset walker builds none.
	states []*walkState
	free   *walkState
	slab   []walkState

	walks     uint64
	faults    uint64
	pwcHits   uint64
	pwcMisses uint64
	memReads  uint64
	totalLat  memdef.Cycle
}

// New builds a walker over table, issuing PWC-miss reads through mem and
// reporting each finished walk to done.
func New(eng *engine.Engine, cfg memdef.Config, table *pagetable.Table, mem MemAccessor, done func(id uint64, r Result)) *Walker {
	w := &Walker{
		eng:   eng,
		cfg:   cfg,
		table: table,
		pwc:   cache.New("pwc", cfg.PWCBytes, cfg.PWCWays, cfg.PWCEntryBytes),
		slots: engine.NewSemaphore(eng, cfg.PTWConcurrentWalks),
		mem:   mem,
		done:  done,
	}
	w.grantFn = w.granted
	w.stageFn = w.stage
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
		eng:     w.eng,
		cfg:     w.cfg,
		table:   w.table,
		pwc:     w.pwc,
		slots:   w.slots,
		mem:     w.mem,
		done:    w.done,
		grantFn: w.grantFn,
		stageFn: w.stageFn,
		states:  w.states[:0],
		slab:    w.slab,
	}
}

// Result of a completed walk.
type Result struct {
	// Mapped is true when the leaf PTE is valid; false means page fault.
	Mapped bool
	Frame  pagetable.FrameNum
}

// walkSlab is the number of walk contexts allocated at once.
const walkSlab = 16

// newState returns an idle walk context: a retained one below the high-water
// mark of states, else a new one from the slab with its once-built memDone.
func (w *Walker) newState() *walkState {
	if i := len(w.states); i < cap(w.states) {
		if x := w.states[:i+1][i]; x != nil {
			w.states = w.states[:i+1]
			*x = walkState{idx: x.idx, memDone: x.memDone}
			return x
		}
	}
	if len(w.slab) == 0 {
		w.slab = make([]walkState, walkSlab)
	}
	x := &w.slab[0]
	w.slab = w.slab[1:]
	x.idx = uint64(len(w.states))
	x.memDone = func() { w.advance(x) }
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

// Walk starts a page-table walk for page p. The walker's done callback
// receives id and the outcome when the walk finishes. Walks beyond the
// concurrency limit queue FIFO.
func (w *Walker) Walk(p memdef.PageNum, id uint64) {
	x := w.get()
	x.p = p
	x.id = id
	x.start = w.eng.Now()
	w.slots.AcquireArgTagged(TagWalkGrant, w.grantFn, x.idx)
}

// granted starts walk context idx once it holds a walker slot.
func (w *Walker) granted(idx uint64) {
	x := w.states[idx]
	w.walks++
	x.n = len(w.table.AppendWalkPath(x.steps[:0], x.p))
	x.i = -1
	w.advance(x)
}

// advance moves x to its next level, or finishes the walk.
func (w *Walker) advance(x *walkState) {
	x.i++
	if x.i >= x.n {
		w.finish(x)
		return
	}
	w.eng.ScheduleArgTagged(w.cfg.PWCLatency, TagWalkStage, w.stageFn, x.idx)
}

// stage probes the PWC for walk context idx's current level, reading the
// entry from memory on a miss.
func (w *Walker) stage(idx uint64) {
	x := w.states[idx]
	s := x.steps[x.i]
	// Every level access costs one PWC probe.
	if w.pwc.Access(s.EntryAddr, memdef.Read).Hit {
		w.pwcHits++
		w.advance(x)
		return
	}
	w.pwcMisses++
	w.memReads++
	w.mem.Access(s.EntryAddr, memdef.Read, TagWalkMem, x.memDone)
}

func (w *Walker) finish(x *walkState) {
	w.totalLat += w.eng.Now() - x.start
	frame := w.table.Lookup(x.p)
	res := Result{Mapped: frame != pagetable.InvalidFrame, Frame: frame}
	if !res.Mapped {
		w.faults++
	}
	w.slots.Release()
	id := x.id
	x.next = w.free
	w.free = x
	w.done(id, res)
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
