package engine

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// BenchmarkScheduleRun measures raw event throughput: a self-rescheduling
// chain of events, the simulator's hot path.
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := New()
	left := b.N
	var tick func()
	tick = func() {
		left--
		if left > 0 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(0, tick)
	b.ResetTimer()
	if _, err := e.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleFanOut measures heap behaviour with many pending events.
func BenchmarkScheduleFanOut(b *testing.B) {
	e := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(memdef.Cycle(i%1000), func() {})
	}
	if _, err := e.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkResourceAcquire measures the bandwidth-resource fast path.
func BenchmarkResourceAcquire(b *testing.B) {
	e := New()
	r := NewResource(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(3)
	}
}

// BenchmarkScheduleRunArg is BenchmarkScheduleRun on the pooled,
// closure-free path: one long-lived callback, per-event state in the arg.
func BenchmarkScheduleRunArg(b *testing.B) {
	b.ReportAllocs()
	e := New()
	var tick func(uint64)
	tick = func(left uint64) {
		if left > 0 {
			e.ScheduleArg(1, tick, left-1)
		}
	}
	e.ScheduleArg(0, tick, uint64(b.N))
	b.ResetTimer()
	if _, err := e.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleBucketHit exercises the ring fast path: delays inside the
// near-future window, so every push and pop is O(1) with no comparisons.
func BenchmarkScheduleBucketHit(b *testing.B) {
	b.ReportAllocs()
	e := New()
	var tick func(uint64)
	tick = func(left uint64) {
		if left > 0 {
			e.ScheduleArg(memdef.Cycle(left%512+1), tick, left-1)
		}
	}
	e.ScheduleArg(0, tick, uint64(b.N))
	b.ResetTimer()
	if _, err := e.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleOverflow forces every event beyond the ring window, so
// each push and pop goes through the far-future heap — the slow tier.
func BenchmarkScheduleOverflow(b *testing.B) {
	b.ReportAllocs()
	e := New()
	var tick func(uint64)
	tick = func(left uint64) {
		if left > 0 {
			e.ScheduleArg(ringWindow+memdef.Cycle(left%1000), tick, left-1)
		}
	}
	e.ScheduleArg(0, tick, uint64(b.N))
	b.ResetTimer()
	if _, err := e.Run(nil); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScheduleMixed interleaves near (ring) and far (heap) events, the
// realistic profile of a simulation that mostly ticks short latencies with
// occasional 20 µs fault services.
func BenchmarkScheduleMixed(b *testing.B) {
	b.ReportAllocs()
	e := New()
	var tick func(uint64)
	tick = func(left uint64) {
		if left == 0 {
			return
		}
		if left%32 == 0 {
			e.ScheduleArg(ringWindow+7, tick, left-1) // rare far event
		} else {
			e.ScheduleArg(3, tick, left-1)
		}
	}
	e.ScheduleArg(0, tick, uint64(b.N))
	b.ResetTimer()
	if _, err := e.Run(nil); err != nil {
		b.Fatal(err)
	}
}
