package engine

import "testing"

// TestFiredByKind: every fired event is counted once, under its own kind when
// the kind lies in a per-package range, else under OtherKinds, and queued
// events are not counted until they fire.
func TestFiredByKind(t *testing.T) {
	e := New()
	nop := func() {}
	argNop := func(uint64) {}
	e.ScheduleTagged(1, 0x0101, nop)
	e.ScheduleTagged(2, 0x0101, nop)
	e.ScheduleArgTagged(3, 0x0203, argNop, 9)
	e.ScheduleArgAtTagged(4, 0x030f, argNop, 0)
	e.Schedule(5, nop)                  // untagged
	e.ScheduleTagged(6, 0x0310, nop)    // low byte past the counters
	e.ScheduleTagged(7, 0x0401, nop)    // outside the ranges
	e.ScheduleTagged(9000, 0x0302, nop) // overflow heap
	s := NewSemaphore(e, 1)
	s.AcquireTagged(0x0202, nop)
	s.AcquireTagged(0x0202, func() {})
	e.ScheduleTagged(20, 0x0105, s.Release)
	e.PauseAt(100)
	if _, err := e.Run(nil); err != ErrPaused {
		t.Fatalf("Run = %v, want ErrPaused", err)
	}

	want := map[Tag]uint64{
		0x0101: 2, 0x0203: 1, 0x030f: 1, 0x0202: 2, 0x0105: 1,
		OtherKinds: 3,
	}
	got := e.FiredByKind()
	if len(got) != len(want) {
		t.Fatalf("FiredByKind = %v, want %v", got, want)
	}
	var sum uint64
	for k, n := range got {
		if want[k] != n {
			t.Errorf("kind %#04x: %d fired, want %d", k, n, want[k])
		}
		sum += n
	}
	if sum != e.Fired() {
		t.Errorf("per-kind counts sum to %d, Fired() = %d", sum, e.Fired())
	}

	e.ClearPause()
	if _, err := e.Run(nil); err != nil {
		t.Fatal(err)
	}
	if got := e.FiredByKind()[0x0302]; got != 1 {
		t.Errorf("overflow-heap event: kind 0x0302 fired %d, want 1", got)
	}
	e.Reset()
	if got := e.FiredByKind(); len(got) != 0 {
		t.Errorf("after Reset: FiredByKind = %v, want empty", got)
	}
}
