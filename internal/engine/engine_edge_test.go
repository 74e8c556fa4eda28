package engine

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// TestDoneCheckedAfterFinalEventRefills pins the Run contract: when the last
// queued event both satisfies the done predicate and schedules follow-up
// work, the follow-up must NOT fire in this Run — done is consulted again
// after the queue is refilled.
func TestDoneCheckedAfterFinalEventRefills(t *testing.T) {
	e := New()
	stop := false
	leaked := false
	e.Schedule(5, func() {
		stop = true
		e.Schedule(0, func() { leaked = true }) // refills the empty queue
	})
	at, err := e.Run(func() bool { return stop })
	if err != nil {
		t.Fatal(err)
	}
	if leaked {
		t.Fatal("event scheduled by the final, done-satisfying event fired in the same Run")
	}
	if at != 5 {
		t.Fatalf("stopped at %d, want 5", at)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want the refilled event to remain queued", e.Pending())
	}
}

// TestBudgetMidCascade exhausts the event budget in the middle of a
// same-cycle cascade: now must stay at the cascade cycle, the remaining
// events must stay queued in order, and a follow-up Run must resume exactly
// where the first stopped.
func TestBudgetMidCascade(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(3, func() {
		// A cascade of five same-cycle events, scheduled from inside cycle 3.
		for i := 0; i < 5; i++ {
			i := i
			e.Schedule(0, func() { order = append(order, i) })
		}
	})
	e.Schedule(10, func() { order = append(order, 99) })
	e.SetEventBudget(3) // the seeding event + two cascade events
	at, err := e.Run(nil)
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if at != 3 || e.Now() != 3 {
		t.Fatalf("budget stop at cycle %d (Now=%d), want 3: now was corrupted mid-cascade", at, e.Now())
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("fired before budget = %v, want [0 1]", order)
	}
	// Resuming must continue the cascade in FIFO order, then reach cycle 10.
	e.SetEventBudget(0)
	at, err = e.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3, 4, 99}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if at != 10 {
		t.Fatalf("finished at %d, want 10", at)
	}
}

// TestScheduleArgOrderingWithClosures verifies that pooled arg-events and
// closure events interleave in strict scheduling order.
func TestScheduleArgOrderingWithClosures(t *testing.T) {
	e := New()
	var order []uint64
	record := func(v uint64) { order = append(order, v) }
	e.ScheduleArg(4, record, 0)
	e.Schedule(4, func() { order = append(order, 1) })
	e.ScheduleArg(4, record, 2)
	e.Schedule(2, func() { order = append(order, 3) })
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []uint64{3, 0, 1, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestScheduleArgNilPanics pins the nil-callback guard on the pooled paths.
func TestScheduleArgNilPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("ScheduleArg(nil) did not panic")
		}
	}()
	e.ScheduleArg(0, nil, 7)
}

// TestScheduleArgAt covers the absolute-time pooled variant,
// ScheduleArgAtTagged, including the past-scheduling panic.
func TestScheduleArgAt(t *testing.T) {
	e := New()
	var got []uint64
	e.Schedule(5, func() {
		e.ScheduleArgAtTagged(9, 0, func(v uint64) { got = append(got, v) }, 42)
		defer func() {
			if recover() == nil {
				t.Error("ScheduleArgAtTagged in the past did not panic")
			}
		}()
		e.ScheduleArgAtTagged(2, 0, func(uint64) {}, 0)
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got = %v, want [42]", got)
	}
	if e.Now() != 9 {
		t.Fatalf("Now = %d, want 9", e.Now())
	}
}

// TestOverflowHeapOrdering drives events through the far-future heap tier and
// checks global (cycle, seq) ordering against events in the near ring,
// including the case where a heap event and ring events land on the same
// cycle: the heap event was necessarily scheduled first and must fire first.
func TestOverflowHeapOrdering(t *testing.T) {
	e := New()
	var order []int
	// Scheduled at cycle 0: lands in the heap (beyond the ring window).
	target := memdef.Cycle(ringWindow + 100)
	e.ScheduleAtTagged(target, 0, func() { order = append(order, 1) })
	// Bounce to a cycle from which the same target is ring-reachable, then
	// schedule a same-cycle ring event: the heap event must still fire first.
	e.Schedule(200, func() {
		e.ScheduleAtTagged(target, 0, func() { order = append(order, 2) })
	})
	// And a far event after the target, plus a near event before it.
	e.ScheduleAtTagged(target+ringWindow+1, 0, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 0) })
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestRingWrapAround exercises delays that wrap the ring several times,
// including exact multiples of the window (which must take the heap path to
// avoid slot collisions).
func TestRingWrapAround(t *testing.T) {
	e := New()
	var at []memdef.Cycle
	tick := func(uint64) { at = append(at, e.Now()) }
	for i := 1; i <= 4; i++ {
		e.ScheduleArg(memdef.Cycle(i)*ringWindow, tick, 0)
		e.ScheduleArg(memdef.Cycle(i)*ringWindow-1, tick, 0)
	}
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []memdef.Cycle{
		ringWindow - 1, ringWindow,
		2*ringWindow - 1, 2 * ringWindow,
		3*ringWindow - 1, 3 * ringWindow,
		4*ringWindow - 1, 4 * ringWindow,
	}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	}
}

// TestNodePoolReuse checks that pooled nodes recycle without corrupting
// queued events: a long self-rescheduling chain must keep the pool bounded
// while a pile of pending events sits in the ring.
func TestNodePoolReuse(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 100; i++ {
		e.Schedule(memdef.Cycle(i), func() { fired++ })
	}
	var chain func(uint64)
	chain = func(left uint64) {
		fired++
		if left > 0 {
			e.ScheduleArg(1, chain, left-1)
		}
	}
	e.ScheduleArg(0, chain, 1000)
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if fired != 100+1001 {
		t.Fatalf("fired = %d, want %d", fired, 100+1001)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after drain", e.Pending())
	}
}
