package engine

import (
	"testing"
	"time"

	"github.com/reproductions/cppe/internal/memdef"
)

// queueMixed schedules events in both tiers — near-future ones into the
// bucket ring, far-future ones into the overflow heap — so a Run paused at an
// early cycle leaves both tiers populated.
func queueMixed(e *Engine, fn func(), argFn func(uint64)) {
	for i := 0; i < 8; i++ {
		e.ScheduleTagged(memdef.Cycle(10+i), 1, fn)
		e.ScheduleArgTagged(memdef.Cycle(ringWindow+100*i), 2, argFn, uint64(i))
	}
	e.ScheduleArg(50, argFn, 99)
}

// TestResetDrainsQueue resets an engine that a paused run left with events
// in the ring and the overflow heap and with every hook armed, and checks it
// comes back exactly as New builds it: empty queue, clock, sequence counter
// and fired count at zero, and no budget, pause, watchdog or periodic hook.
func TestResetDrainsQueue(t *testing.T) {
	e := New()
	fired := 0
	fn := func() { fired++ }
	argFn := func(uint64) { fired++ }
	queueMixed(e, fn, argFn)
	e.SetEventBudget(1000)
	e.SetWatchdog(time.Hour, 4)
	e.SetPeriodic(5, func() {})
	e.PauseAt(12)
	if _, err := e.Run(nil); err != ErrPaused {
		t.Fatalf("Run = %v, want ErrPaused", err)
	}
	if e.ringCount == 0 || len(e.overflow) == 0 {
		t.Fatalf("setup: ring %d, overflow %d events pending; want both tiers populated", e.ringCount, len(e.overflow))
	}
	if e.Now() == 0 || e.Fired() == 0 {
		t.Fatalf("setup: now %d, fired %d; want a partly run engine", e.Now(), e.Fired())
	}
	queued := e.Pending()

	e.Reset()
	if e.Pending() != 0 || e.ringCount != 0 || len(e.overflow) != 0 {
		t.Errorf("after Reset: pending %d, ring %d, overflow %d; want empty", e.Pending(), e.ringCount, len(e.overflow))
	}
	for w, word := range e.ringBits {
		if word != 0 {
			t.Errorf("after Reset: ring bitmap word %d = %#x", w, word)
		}
	}
	if e.Now() != 0 || e.seq != 0 || e.Fired() != 0 {
		t.Errorf("after Reset: now %d, seq %d, fired %d; want 0", e.Now(), e.seq, e.Fired())
	}
	if e.budget != 0 || e.pauseSet || e.wdWindow != 0 || e.periodicFn != nil {
		t.Errorf("after Reset: budget %d, pause %v, watchdog %v, periodic armed %v; want all disarmed",
			e.budget, e.pauseSet, e.wdWindow, e.periodicFn != nil)
	}
	pooled := 0
	for n := e.free; n != nil; n = n.next {
		if n.fn != nil || n.argFn != nil || n.tag != 0 {
			t.Fatal("pooled node still holds a callback or tag")
		}
		pooled++
	}
	if pooled < queued {
		t.Errorf("node pool holds %d nodes after dropping %d pending events", pooled, queued)
	}

	// The reset engine runs like a new one: only the new events fire, in
	// order, with the dropped ones gone for good.
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(ringWindow+1, func() { order = append(order, ringWindow+1) })
	firedBefore := fired
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 3, ringWindow + 1}; len(order) != len(want) || order[0] != want[0] || order[1] != want[1] || order[2] != want[2] {
		t.Errorf("events after Reset fired as %v, want %v", order, want)
	}
	if fired != firedBefore {
		t.Errorf("%d dropped events fired after Reset", fired-firedBefore)
	}
	if e.Fired() != 3 || e.Now() != ringWindow+1 {
		t.Errorf("after Reset and Run: fired %d, now %d; want 3, %d", e.Fired(), e.Now(), ringWindow+1)
	}
}

// TestResetReusesNodes gates the recycling: on a warmed engine, a schedule →
// run → reset cycle that leaves events queued in both tiers allocates
// nothing, because Reset returns the pending nodes to the pool.
func TestResetReusesNodes(t *testing.T) {
	e := New()
	fn := func() {}
	argFn := func(uint64) {}
	cycle := func() {
		queueMixed(e, fn, argFn)
		e.PauseAt(20)
		if _, err := e.Run(nil); err != ErrPaused {
			t.Fatalf("Run = %v, want ErrPaused", err)
		}
		e.Reset()
	}
	cycle() // warm the node pool and the overflow heap
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Errorf("schedule → run → reset: %v allocs per cycle, want 0", a)
	}
}
