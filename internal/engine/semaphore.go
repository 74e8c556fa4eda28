package engine

import "github.com/reproductions/cppe/internal/memdef"

// waiter is one queued Acquire: the callback plus the snapshot tag that can
// re-create it on restore (zero tag for legacy untagged acquires). Exactly
// one of fn / argFn is set, as in eventNode.
type waiter struct {
	tag   Tag
	fn    func()
	argFn func(uint64)
	arg   uint64
}

// Semaphore is a counting semaphore for event-driven code: up to cap holders
// at once, FIFO hand-off to waiters. It models structures with a bounded
// number of concurrent contexts, such as the 64-walk page table walker.
//
// Waiters live in a ring buffer (head index plus count) that grows by
// doubling and is never shifted, so sustained contention allocates nothing
// once the ring has reached the peak queue depth.
type Semaphore struct {
	eng  *Engine
	cap  int
	held int
	ring []waiter
	head int
	n    int
	peak int
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(eng *Engine, capacity int) *Semaphore {
	if capacity <= 0 {
		panic("engine: semaphore capacity must be positive")
	}
	return &Semaphore{eng: eng, cap: capacity}
}

// Acquire grants a slot to fn as soon as one is available (immediately, via a
// zero-delay event, if the semaphore is not full). Untagged acquires are for
// tests and tooling; production paths use AcquireTagged so in-flight grants
// and queued waiters stay checkpointable.
func (s *Semaphore) Acquire(fn func()) { s.AcquireTagged(Tag{}, fn) }

// AcquireTagged is Acquire with a snapshot tag describing fn, so that both
// the zero-delay grant event and a queued waiter can be serialized.
func (s *Semaphore) AcquireTagged(tag Tag, fn func()) {
	s.acquire(waiter{tag: tag, fn: fn})
}

// AcquireArgTagged is AcquireTagged's allocation-free variant: the grant runs
// fn(arg), so hot callers pass one long-lived callback and carry the
// per-acquire operand in arg (see ScheduleArg).
func (s *Semaphore) AcquireArgTagged(tag Tag, fn func(uint64), arg uint64) {
	s.acquire(waiter{tag: tag, argFn: fn, arg: arg})
}

func (s *Semaphore) acquire(w waiter) {
	if s.held < s.cap {
		s.held++
		if s.held > s.peak {
			s.peak = s.held
		}
		s.grant(w)
		return
	}
	s.push(w)
}

// grant schedules w's callback as a zero-delay event.
func (s *Semaphore) grant(w waiter) {
	if w.fn != nil {
		s.eng.ScheduleTagged(0, w.tag, w.fn)
		return
	}
	s.eng.ScheduleArgTagged(0, w.tag, w.argFn, w.arg)
}

// push appends w to the waiter ring, doubling it (unwrapped) when full.
func (s *Semaphore) push(w waiter) {
	if s.n == len(s.ring) {
		grown := make([]waiter, max(8, 2*len(s.ring)))
		for i := 0; i < s.n; i++ {
			grown[i] = s.at(i)
		}
		s.ring = grown
		s.head = 0
	}
	s.ring[(s.head+s.n)%len(s.ring)] = w
	s.n++
}

// at returns the i-th queued waiter in FIFO order.
func (s *Semaphore) at(i int) waiter { return s.ring[(s.head+i)%len(s.ring)] }

// Release returns a slot; the oldest waiter (if any) is granted it.
func (s *Semaphore) Release() {
	if s.held <= 0 {
		//cppelint:panicfree double-release is a component bug; counting past zero would mask lost wakeups, and the harness recovers the panic into Result.Err
		panic("engine: semaphore released below zero")
	}
	if s.n > 0 {
		next := s.ring[s.head]
		s.ring[s.head] = waiter{}
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		s.grant(next)
		return
	}
	s.held--
}

// InUse returns the number of currently held slots.
func (s *Semaphore) InUse() int { return s.held }

// Waiting returns the number of queued waiters.
func (s *Semaphore) Waiting() int { return s.n }

// Peak returns the maximum concurrent holders observed.
func (s *Semaphore) Peak() int { return s.peak }

// Latency is a convenience for modeling a fixed-latency, fully pipelined
// stage: After schedules fn after lat cycles.
func After(eng *Engine, lat memdef.Cycle, fn func()) { eng.Schedule(lat, fn) }
