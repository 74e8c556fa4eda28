package engine

// waiter is one queued acquire: the callback and the kind of its grant
// event. Exactly one of fn / argFn is set, as in eventNode.
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
	s := &Semaphore{eng: eng}
	s.Reset(capacity)
	return s
}

// Reset empties the semaphore — no holders, no waiters, peak 0 — with the
// given (positive) capacity, keeping the waiter ring's storage.
func (s *Semaphore) Reset(capacity int) {
	clear(s.ring)
	*s = Semaphore{eng: s.eng, cap: capacity, ring: s.ring}
}

// AcquireTagged grants a slot to fn as soon as one is available
// (immediately, via a zero-delay event, if the semaphore is not full). tag is
// the grant event's kind.
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
	s.eng.schedule(s.eng.now, w.tag, w.fn, w.argFn, w.arg)
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
