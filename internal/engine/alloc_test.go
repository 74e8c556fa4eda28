package engine

import "testing"

// TestSemaphoreContentionAllocFree gates the waiter FIFO: once the ring has
// grown to the peak queue depth, acquires that queue and releases that hand
// off a slot allocate nothing, for closure and arg-callback waiters alike.
func TestSemaphoreContentionAllocFree(t *testing.T) {
	e := New()
	s := NewSemaphore(e, 2)
	granted := 0
	fn := func() { granted++ }
	argFn := func(uint64) { granted++ }
	const depth = 16
	round := func() {
		for i := 0; i < depth; i++ {
			if i%2 == 0 {
				s.AcquireTagged(Tag{Kind: 1, A: uint64(i)}, fn)
			} else {
				s.AcquireArgTagged(Tag{Kind: 2, A: uint64(i)}, argFn, uint64(i))
			}
		}
		for i := 0; i < depth; i++ {
			s.Release()
		}
		if _, err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm the waiter ring and the engine's event pool
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Errorf("contended acquire/release: %v allocs per %d-waiter round, want 0", a, depth)
	}
	if want := depth * 102; granted != want {
		t.Errorf("granted %d times, want %d", granted, want)
	}
	if s.InUse() != 0 || s.Waiting() != 0 {
		t.Errorf("after balanced rounds: in use %d, waiting %d", s.InUse(), s.Waiting())
	}
}
