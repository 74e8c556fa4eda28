package engine

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

func TestScheduleOrdering(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(10, func() { order = append(order, 2) })
	e.Schedule(5, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 3) })
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(7, func() { order = append(order, i) })
	}
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of order at %d: %v", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var ticks []memdef.Cycle
	var tick func()
	n := 0
	tick = func() {
		ticks = append(ticks, e.Now())
		n++
		if n < 5 {
			e.Schedule(3, tick)
		}
	}
	e.Schedule(0, tick)
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []memdef.Cycle{0, 3, 6, 9, 12}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestScheduleAtPastPanics(t *testing.T) {
	e := New()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("ScheduleAtTagged in the past did not panic")
			}
		}()
		e.ScheduleAtTagged(5, 0, func() {})
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestNilFnPanics(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("Schedule(nil) did not panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestRunDonePredicate(t *testing.T) {
	e := New()
	fired := 0
	for i := 0; i < 10; i++ {
		e.Schedule(memdef.Cycle(i), func() { fired++ })
	}
	stop := func() bool { return fired >= 4 }
	if _, err := e.Run(stop); err != nil {
		t.Fatal(err)
	}
	if fired != 4 {
		t.Fatalf("fired = %d, want 4", fired)
	}
	if e.Pending() != 6 {
		t.Fatalf("pending = %d, want 6", e.Pending())
	}
}

func TestEventBudget(t *testing.T) {
	e := New()
	e.SetEventBudget(100)
	var loop func()
	loop = func() { e.Schedule(1, loop) } // infinite self-rescheduling
	e.Schedule(0, loop)
	if _, err := e.Run(nil); err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if e.Fired() != 100 {
		t.Fatalf("fired = %d, want 100", e.Fired())
	}
}

func TestResourceSerialization(t *testing.T) {
	e := New()
	r := NewResource(e)
	// Three back-to-back 10-cycle jobs booked at cycle 0 finish at 10/20/30.
	var finishes []memdef.Cycle
	e.Schedule(0, func() {
		finishes = append(finishes, r.Acquire(10), r.Acquire(10), r.Acquire(10))
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	want := []memdef.Cycle{10, 20, 30}
	for i := range want {
		if finishes[i] != want[i] {
			t.Fatalf("finishes = %v, want %v", finishes, want)
		}
	}
	if r.BusyCycles() != 30 {
		t.Fatalf("busy = %d, want 30", r.BusyCycles())
	}
}

func TestResourceIdleGap(t *testing.T) {
	e := New()
	r := NewResource(e)
	e.Schedule(0, func() { r.Acquire(5) })
	e.Schedule(100, func() {
		// Resource has been idle since cycle 5; job starts now (100).
		if got := r.Acquire(7); got != 107 {
			t.Errorf("Acquire after idle = %d, want 107", got)
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
}

func TestSemaphoreCapacityAndFIFO(t *testing.T) {
	e := New()
	s := NewSemaphore(e, 2)
	var got []int
	hold := func(id int, dur memdef.Cycle) {
		s.AcquireTagged(0, func() {
			got = append(got, id)
			e.Schedule(dur, s.Release)
		})
	}
	e.Schedule(0, func() {
		hold(0, 10)
		hold(1, 10)
		hold(2, 10) // must wait for a release
		hold(3, 10)
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("granted = %v", got)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("grants out of FIFO order: %v", got)
		}
	}
	if s.Peak() != 2 {
		t.Fatalf("peak = %d, want 2", s.Peak())
	}
	if s.InUse() != 0 {
		t.Fatalf("in use at end = %d", s.InUse())
	}
}

func TestSemaphoreReleaseUnderflowPanics(t *testing.T) {
	e := New()
	s := NewSemaphore(e, 1)
	defer func() {
		if recover() == nil {
			t.Error("Release below zero did not panic")
		}
	}()
	s.Release()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int {
		e := New()
		var trace []int
		for i := 0; i < 50; i++ {
			i := i
			e.Schedule(memdef.Cycle(i%7), func() { trace = append(trace, i) })
		}
		if _, err := e.Run(nil); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestResourceAcquireAt(t *testing.T) {
	e := New()
	r := NewResource(e)
	e.Schedule(0, func() {
		// Earliest in the future: starts there.
		if got := r.AcquireAt(50, 10); got != 60 {
			t.Errorf("AcquireAt(50,10) = %d, want 60", got)
		}
		// Earliest in the past of the resource's horizon: starts at horizon.
		if got := r.AcquireAt(10, 5); got != 65 {
			t.Errorf("chained AcquireAt = %d, want 65", got)
		}
	})
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if r.BusyCycles() != 15 {
		t.Fatalf("busy = %d", r.BusyCycles())
	}
}
