// Package engine implements the discrete-event simulation core shared by all
// hardware models. It is deliberately minimal: a time-ordered event queue with
// deterministic FIFO tie-breaking, and a couple of helpers (resources,
// deferred wake-ups) that the latency/bandwidth models build on.
//
// An Engine is single-goroutine: components schedule closures and the owner
// drains the queue with Run. Determinism is guaranteed — two events scheduled
// for the same cycle fire in scheduling order.
//
// Internally the queue is a two-tier bucket scheduler. Events landing within
// the next ringWindow cycles go into a ring of per-cycle FIFO buckets (O(1)
// push and pop, no comparisons); events further out go into an overflow
// min-heap ordered by (cycle, seq). Event nodes are pooled on a free list, so
// the steady-state hot path performs no heap allocation. See the
// "Performance" section of DESIGN.md for the sizing and the determinism
// argument.
package engine

import (
	"fmt"
	"math/bits"
	"time"

	"github.com/reproductions/cppe/internal/memdef"
)

// ringWindow is the near-future window, in cycles, covered by the bucket
// ring. It must be a power of two. The window is sized to cover the common
// scheduling distances of this simulator — TLB/cache/DRAM latencies and
// compute gaps from Table I are all well under 4096 cycles — so only rare
// far-future events (the 20 µs fault service latency, congested-link
// completions) pay for the overflow heap.
const ringWindow = 4096

const ringMask = ringWindow - 1

// eventNode is one scheduled callback. Nodes are pooled: after an event
// fires, its node returns to the engine's free list.
type eventNode struct {
	at  memdef.Cycle
	seq uint64
	// Exactly one of fn / argFn is set. argFn+arg is the non-capturing
	// variant used by hot callers to avoid per-event closure allocation.
	fn    func()
	argFn func(uint64)
	arg   uint64
	// tag names the callback and its operands (zero Kind = untagged).
	// Production scheduling paths use the *Tagged variants.
	tag  Tag
	next *eventNode
}

// Tag is a deterministic event descriptor: Kind names the callback (component
// kinds live in per-package constant ranges; 0 is reserved for untagged) and
// A/B carry its operands (a warp gid, a walk ID, a page number...). Tags
// label the event stream for observation; they never affect dispatch.
type Tag struct {
	Kind uint16
	A, B uint64
}

// bucket is one per-cycle FIFO list in the ring.
type bucket struct {
	head, tail *eventNode
}

// Engine is a deterministic discrete-event scheduler.
type Engine struct {
	now     memdef.Cycle
	seq     uint64
	fired   uint64
	budget  uint64 // optional hard cap on events per Run; 0 = unlimited
	pending int

	// ring holds events with at in [now, now+ringWindow), bucketed by
	// at&ringMask. Because ring events always satisfy that half-open bound
	// (scheduling only ever sees a non-decreasing now), a slot holds events
	// of exactly one cycle at a time.
	ring      [ringWindow]bucket
	ringBits  [ringWindow / 64]uint64
	ringCount int

	// overflow holds events at or beyond now+ringWindow, ordered by
	// (at, seq). For any cycle T, every overflow event precedes (in seq)
	// every ring event, because entering the ring requires a strictly later
	// scheduling time; popping the heap before the bucket therefore
	// preserves global FIFO tie-breaking.
	overflow []*eventNode

	free *eventNode

	// Periodic hook (integrity auditing): fn runs between events whenever at
	// least periodicEvery cycles of simulated time have passed since its last
	// invocation. Running outside the event queue keeps the hook invisible to
	// the simulation — no extra events, no seq perturbation, and the run still
	// ends at the cycle of its last real event.
	periodicEvery memdef.Cycle
	periodicLast  memdef.Cycle
	periodicFn    func()

	// No-progress watchdog: if wdEvery consecutive events fire without the
	// frontier cycle advancing and more than wdWindow of wall-clock time
	// passes, Run returns ErrNoProgress (a same-cycle livelock that the event
	// budget would only catch millions of events later).
	wdEvery    uint64
	wdWindow   time.Duration
	wdCount    uint64
	wdCycle    memdef.Cycle
	wdDeadline time.Time

	// Pause boundary: when armed, Run returns ErrPaused between events as
	// soon as the next pending event lies beyond pauseAt. Every event at or
	// before pauseAt has then fired, so the machine state is exactly the
	// state "at the end of cycle pauseAt" — the epoch boundary where a
	// resumable run reports progress and may park.
	pauseAt  memdef.Cycle
	pauseSet bool
}

// New returns an empty engine at cycle 0.
func New() *Engine {
	e := &Engine{}
	e.Reset()
	return e
}

// Reset returns the engine to the state New produces — cycle 0, empty queue,
// no budget, and no pause, watchdog or periodic hook armed — while keeping
// its node pool and overflow-heap capacity. Pending events (an aborted or
// paused run leaves some queued) are dropped: their nodes go back to the
// pool, so a recycled engine schedules without allocating.
func (e *Engine) Reset() {
	for w, word := range e.ringBits {
		for ; word != 0; word &= word - 1 {
			b := &e.ring[w<<6+bits.TrailingZeros64(word)]
			for n := b.head; n != nil; {
				next := n.next
				e.recycle(n)
				n = next
			}
		}
	}
	for _, n := range e.overflow {
		e.recycle(n)
	}
	clear(e.overflow)
	*e = Engine{free: e.free, overflow: e.overflow[:0]}
}

// recycle clears n and pushes it onto the node pool.
func (e *Engine) recycle(n *eventNode) {
	*n = eventNode{next: e.free}
	e.free = n
}

// Now returns the current simulated cycle.
func (e *Engine) Now() memdef.Cycle { return e.now }

// Fired returns the total number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.pending }

// SetEventBudget installs a hard cap on the number of events a single Run may
// fire; exceeding it makes Run return ErrBudget. Zero disables the cap.
func (e *Engine) SetEventBudget(n uint64) { e.budget = n }

// SetPeriodic installs a hook that Run invokes between events whenever at
// least every cycles of simulated time have elapsed since its previous
// invocation. The hook observes a consistent simulation state (no event is
// mid-flight) and must not schedule events or mutate component state; the
// integrity auditor is the intended client. every <= 0 or fn == nil removes
// the hook.
func (e *Engine) SetPeriodic(every memdef.Cycle, fn func()) {
	if every <= 0 || fn == nil {
		e.periodicFn = nil
		return
	}
	e.periodicEvery = every
	e.periodicLast = e.now
	e.periodicFn = fn
}

// SetWatchdog arms the no-progress watchdog: if everyEvents consecutive
// events fire with the frontier cycle frozen and window of wall-clock time
// passes, Run returns ErrNoProgress. Zero window disarms it. everyEvents <= 0
// selects a default of 1<<20, large enough that any legitimate same-cycle
// cascade (bounded by warps + in-flight migrations) stays far below it.
func (e *Engine) SetWatchdog(window time.Duration, everyEvents uint64) {
	if window <= 0 {
		e.wdWindow = 0
		return
	}
	if everyEvents == 0 {
		everyEvents = 1 << 20
	}
	e.wdEvery = everyEvents
	e.wdWindow = window
}

func (e *Engine) alloc() *eventNode {
	n := e.free
	if n == nil {
		return &eventNode{}
	}
	e.free = n.next
	n.next = nil
	return n
}

// insert enqueues n at absolute cycle at (>= now).
func (e *Engine) insert(n *eventNode, at memdef.Cycle) {
	e.seq++
	n.at = at
	n.seq = e.seq
	e.pending++
	if at-e.now < ringWindow {
		s := int(at & ringMask)
		b := &e.ring[s]
		if b.head == nil {
			b.head = n
			e.ringBits[s>>6] |= 1 << uint(s&63)
			e.ringCount++
		} else {
			b.tail.next = n
		}
		b.tail = n
		return
	}
	e.heapPush(n)
}

// Schedule runs fn after delay cycles (possibly zero, meaning "later this
// cycle, after already-queued same-cycle events").
func (e *Engine) Schedule(delay memdef.Cycle, fn func()) {
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: Schedule called with nil fn")
	}
	n := e.alloc()
	n.fn = fn
	e.insert(n, e.now+delay)
}

// ScheduleArg runs fn(arg) after delay cycles. It is the allocation-free
// variant of Schedule for hot callers: fn is typically a long-lived callback
// stored once by the component, and arg carries the per-event state, so no
// closure is created per event.
func (e *Engine) ScheduleArg(delay memdef.Cycle, fn func(uint64), arg uint64) {
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: ScheduleArg called with nil fn")
	}
	n := e.alloc()
	n.argFn = fn
	n.arg = arg
	e.insert(n, e.now+delay)
}

// ScheduleAt runs fn at absolute cycle at. Scheduling in the past panics:
// components must never rewind time.
func (e *Engine) ScheduleAt(at memdef.Cycle, fn func()) {
	if at < e.now {
		//cppelint:panicfree scheduling in the past is a component bug that would silently corrupt event order; fail loudly, recovered by the harness
		panic(fmt.Sprintf("engine: ScheduleAt(%d) in the past (now=%d)", at, e.now))
	}
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: ScheduleAt called with nil fn")
	}
	n := e.alloc()
	n.fn = fn
	e.insert(n, at)
}

// ScheduleTagged is Schedule with a tag describing fn (see Tag). Production
// scheduling paths use the tagged variants; untagged events are fine for
// tests and ad-hoc tooling.
func (e *Engine) ScheduleTagged(delay memdef.Cycle, tag Tag, fn func()) {
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: ScheduleTagged called with nil fn")
	}
	n := e.alloc()
	n.fn = fn
	n.tag = tag
	e.insert(n, e.now+delay)
}

// ScheduleAtTagged is ScheduleAt with a tag (see ScheduleTagged).
func (e *Engine) ScheduleAtTagged(at memdef.Cycle, tag Tag, fn func()) {
	if at < e.now {
		//cppelint:panicfree scheduling in the past is a component bug that would silently corrupt event order; fail loudly, recovered by the harness
		panic(fmt.Sprintf("engine: ScheduleAtTagged(%d) in the past (now=%d)", at, e.now))
	}
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: ScheduleAtTagged called with nil fn")
	}
	n := e.alloc()
	n.fn = fn
	n.tag = tag
	e.insert(n, at)
}

// ScheduleArgTagged is ScheduleArg with a tag (see ScheduleTagged).
func (e *Engine) ScheduleArgTagged(delay memdef.Cycle, tag Tag, fn func(uint64), arg uint64) {
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: ScheduleArgTagged called with nil fn")
	}
	n := e.alloc()
	n.argFn = fn
	n.arg = arg
	n.tag = tag
	e.insert(n, e.now+delay)
}

// ScheduleArgAt is ScheduleAt's allocation-free variant (see ScheduleArg).
func (e *Engine) ScheduleArgAt(at memdef.Cycle, fn func(uint64), arg uint64) {
	if at < e.now {
		//cppelint:panicfree scheduling in the past is a component bug that would silently corrupt event order; fail loudly, recovered by the harness
		panic(fmt.Sprintf("engine: ScheduleArgAt(%d) in the past (now=%d)", at, e.now))
	}
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: ScheduleArgAt called with nil fn")
	}
	n := e.alloc()
	n.argFn = fn
	n.arg = arg
	e.insert(n, at)
}

// ScheduleArgAtTagged is ScheduleArgAt with a tag (see ScheduleTagged).
func (e *Engine) ScheduleArgAtTagged(at memdef.Cycle, tag Tag, fn func(uint64), arg uint64) {
	if at < e.now {
		//cppelint:panicfree scheduling in the past is a component bug that would silently corrupt event order; fail loudly, recovered by the harness
		panic(fmt.Sprintf("engine: ScheduleArgAtTagged(%d) in the past (now=%d)", at, e.now))
	}
	if fn == nil {
		//cppelint:panicfree nil-callback guard catches a wiring bug at the call site; the harness converts the panic to Result.Err via ErrPanic
		panic("engine: ScheduleArgAtTagged called with nil fn")
	}
	n := e.alloc()
	n.argFn = fn
	n.arg = arg
	n.tag = tag
	e.insert(n, at)
}

// nextRing returns the earliest cycle with a ring event. Ring slots ascend in
// time when scanned circularly from now's slot, so the first occupied slot in
// that order is the earliest.
func (e *Engine) nextRing() (memdef.Cycle, int) {
	start := int(e.now & ringMask)
	w := start >> 6
	word := e.ringBits[w] >> uint(start&63) << uint(start&63) // mask off slots before start
	for i := 0; i < len(e.ringBits)+1; i++ {
		if word != 0 {
			s := w<<6 + bits.TrailingZeros64(word)
			return e.ring[s].head.at, s
		}
		w++
		if w == len(e.ringBits) {
			w = 0
		}
		word = e.ringBits[w]
		if w == start>>6 {
			// Wrapped: only slots before start remain in this word.
			word &= 1<<uint(start&63) - 1
		}
	}
	//cppelint:panicfree ring bookkeeping invariant; unreachable unless the bitmap and counter disagree, which no error path could meaningfully report
	panic("engine: ringCount > 0 but no occupied slot")
}

// popNext removes and returns the globally next event in (at, seq) order.
func (e *Engine) popNext() *eventNode {
	if e.ringCount == 0 {
		return e.heapPop()
	}
	// Same-cycle cascade fast path: events at cycle now can only live in slot
	// now&ringMask, so when that slot's head is still at now it is the
	// earliest ring event and the bitmap scan is unnecessary. Cascades (many
	// events firing at one cycle) dominate the simulator's event mix, making
	// this the common case.
	s := int(e.now & ringMask)
	at := e.now
	if b := &e.ring[s]; b.head == nil || b.head.at != e.now {
		at, s = e.nextRing()
	}
	if len(e.overflow) > 0 && e.overflow[0].at <= at {
		// An overflow event at the same cycle always precedes ring events of
		// that cycle (strictly smaller seq; see the overflow invariant).
		return e.heapPop()
	}
	return e.popRing(s)
}

// popRing removes and returns the head event of ring slot s.
func (e *Engine) popRing(s int) *eventNode {
	b := &e.ring[s]
	n := b.head
	b.head = n.next
	if b.head == nil {
		b.tail = nil
		e.ringBits[s>>6] &^= 1 << uint(s&63)
		e.ringCount--
	}
	n.next = nil
	e.pending--
	return n
}

// popNextBounded is popNext limited to events at or before limit: it returns
// nil — removing nothing — when the globally next event lies beyond the
// boundary. One queue scan replaces Run's peek-then-pop pair on the paused
// path; pop order is identical to popNext's.
func (e *Engine) popNextBounded(limit memdef.Cycle) *eventNode {
	if e.ringCount == 0 {
		if len(e.overflow) == 0 || e.overflow[0].at > limit {
			return nil
		}
		return e.heapPop()
	}
	// Same-cycle cascade fast path; see popNext.
	s := int(e.now & ringMask)
	at := e.now
	if b := &e.ring[s]; b.head == nil || b.head.at != e.now {
		at, s = e.nextRing()
	}
	if len(e.overflow) > 0 && e.overflow[0].at <= at {
		if e.overflow[0].at > limit {
			return nil
		}
		return e.heapPop()
	}
	if at > limit {
		return nil
	}
	return e.popRing(s)
}

// ErrBudget is returned by Run when the event budget is exhausted, which in
// this simulator indicates a livelock (e.g. unbounded fault replay).
var ErrBudget = fmt.Errorf("engine: event budget exhausted")

// ErrNoProgress is returned by Run when the watchdog trips: a long stretch of
// events fired without the frontier cycle advancing, within a wall-clock
// window (see SetWatchdog). It indicates a same-cycle livelock — e.g. a
// zero-delay event loop — caught long before ErrBudget would fire.
var ErrNoProgress = fmt.Errorf("engine: no forward progress (frontier cycle frozen) within watchdog window")

// ErrPaused is returned by Run when the pause boundary armed with PauseAt is
// reached: every event at or before the boundary cycle has fired and the next
// pending event lies beyond it. The queue is intact; calling Run again (after
// ClearPause or a later PauseAt) resumes exactly where execution stopped.
var ErrPaused = fmt.Errorf("engine: paused at cycle boundary")

// PauseAt arms a pause boundary: Run returns ErrPaused once all events at or
// before cycle have fired. Pausing in the past (cycle < Now) pauses before
// the next event.
func (e *Engine) PauseAt(cycle memdef.Cycle) {
	e.pauseAt = cycle
	e.pauseSet = true
}

// ClearPause disarms the pause boundary.
func (e *Engine) ClearPause() { e.pauseSet = false }

// watchdogCheck is consulted once per fired event while the watchdog is
// armed. It returns true when the no-progress condition is met.
func (e *Engine) watchdogCheck() bool {
	if e.now != e.wdCycle {
		e.wdCycle = e.now
		e.wdCount = 0
		e.wdDeadline = time.Time{}
		return false
	}
	e.wdCount++
	if e.wdCount < e.wdEvery {
		return false
	}
	// Frontier frozen for wdEvery events: start (or consult) the wall clock.
	if e.wdDeadline.IsZero() {
		e.wdDeadline = time.Now().Add(e.wdWindow)
		e.wdCount = 0
		return false
	}
	e.wdCount = 0
	return time.Now().After(e.wdDeadline)
}

// Run drains the event queue until it is empty or until done returns true
// (checked between events; done may be nil — and consulted again even when
// the queue transiently empties and the final event refills it, so an event
// that both satisfies done and schedules follow-up work does not leak the
// follow-up into this Run). It returns the cycle at which execution stopped.
//
// When the event budget is exhausted mid-cascade (several events at the same
// cycle), now stays at the cycle of the last fired event and the remaining
// events stay queued in order; a subsequent Run resumes exactly where this
// one stopped.
func (e *Engine) Run(done func() bool) (memdef.Cycle, error) {
	start := e.fired
	for e.pending > 0 {
		if done != nil && done() {
			return e.now, nil
		}
		if e.budget != 0 && e.fired-start >= e.budget {
			return e.now, ErrBudget
		}
		var n *eventNode
		if e.pauseSet {
			// Bounded pop: one queue scan decides both "past the boundary?"
			// and "which event fires next".
			if n = e.popNextBounded(e.pauseAt); n == nil {
				return e.now, ErrPaused
			}
		} else {
			n = e.popNext()
		}
		if n.at < e.now {
			//cppelint:panicfree time monotonicity invariant on the zero-alloc dispatch path; the harness converts the panic to Result.Err via ErrPanic
			panic("engine: event time went backwards")
		}
		e.now = n.at
		e.fired++
		// Copy the callback out and recycle the node before invoking it: the
		// callback may schedule new events, which can then reuse this node.
		fn, argFn, arg := n.fn, n.argFn, n.arg
		e.recycle(n)
		if fn != nil {
			fn()
		} else {
			argFn(arg)
		}
		if e.periodicFn != nil && e.now-e.periodicLast >= e.periodicEvery {
			e.periodicLast = e.now
			e.periodicFn()
		}
		if e.wdWindow != 0 && e.watchdogCheck() {
			return e.now, ErrNoProgress
		}
	}
	return e.now, nil
}

// heapPush pushes n onto the overflow heap, ordered by (at, seq).
func (e *Engine) heapPush(n *eventNode) {
	h := append(e.overflow, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

// heapPop removes the minimum (at, seq) node from the overflow heap.
func (e *Engine) heapPop() *eventNode {
	h := e.overflow
	n := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= len(h) {
			break
		}
		c := l
		if r < len(h) && eventLess(h[r], h[l]) {
			c = r
		}
		if !eventLess(h[c], h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.overflow = h
	e.pending--
	return n
}

func eventLess(a, b *eventNode) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Resource models a serially shared unit (a bus, a DRAM channel, a port):
// work items occupy it back-to-back and each caller learns its own completion
// time. Acquire returns the cycle at which a job of the given duration,
// requested now, will finish, advancing the resource's horizon.
type Resource struct {
	eng  *Engine
	free memdef.Cycle // next cycle at which the resource is idle
	busy memdef.Cycle // total busy cycles, for utilization stats
}

// NewResource returns an idle resource bound to eng.
func NewResource(eng *Engine) *Resource {
	return &Resource{eng: eng}
}

// Reset makes the resource idle again, with no booked or busy cycles.
func (r *Resource) Reset() { *r = Resource{eng: r.eng} }

// Acquire books dur cycles of exclusive use starting no earlier than now and
// no earlier than the end of previously booked work. It returns the
// completion cycle.
func (r *Resource) Acquire(dur memdef.Cycle) memdef.Cycle {
	return r.AcquireAt(r.eng.Now(), dur)
}

// AcquireAt books dur cycles starting no earlier than `earliest` (and no
// earlier than now or previously booked work). It lets pipelined stages chain
// resources: stage two starts when stage one's result is ready.
func (r *Resource) AcquireAt(earliest memdef.Cycle, dur memdef.Cycle) memdef.Cycle {
	start := r.eng.Now()
	if earliest > start {
		start = earliest
	}
	if r.free > start {
		start = r.free
	}
	r.free = start + dur
	r.busy += dur
	return r.free
}

// FreeAt returns the cycle at which the resource becomes idle.
func (r *Resource) FreeAt() memdef.Cycle { return r.free }

// BusyCycles returns the cumulative booked cycles.
func (r *Resource) BusyCycles() memdef.Cycle { return r.busy }
