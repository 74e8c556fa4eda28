package cppe

import (
	"runtime"
	"testing"
)

// TestRunAllocCeiling gates the allocations of one whole simulation per policy
// family at scale 0.05 and 50% oversubscription, in a fresh session.
// Allocation counts are deterministic, so a hot path that starts allocating
// per event — a fault, a plan, a victim selection — shows up here at once.
// What remains is machine construction, trace generation, the policy
// objects and the result; each ceiling sits about 15% above the measured
// count (321 / 319 / 300 / 360, the same within one under -race).
func TestRunAllocCeiling(t *testing.T) {
	for _, tc := range []struct {
		bench, setup string
		ceiling      float64
	}{
		{"SRD", SetupCPPE, 370},
		{"HIS", SetupLearned, 370},
		{"STN", SetupDisableOnFull, 345},
		{"BFS", SetupTree, 415},
	} {
		t.Run(tc.bench+"/"+tc.setup, func(t *testing.T) {
			req := Request{Benchmark: tc.bench, Setup: tc.setup, Oversubscription: 50}
			run := func() {
				if _, err := NewSession(Options{Scale: 0.05, Parallelism: 1}).Run(req); err != nil {
					t.Fatal(err)
				}
			}
			if a := testing.AllocsPerRun(3, run); a > tc.ceiling {
				t.Errorf("%s/%s@50 at scale 0.05: %v allocs per run, ceiling %v", tc.bench, tc.setup, a, tc.ceiling)
			}
		})
	}
}

// TestRunBytesCeiling gates the bytes allocated by one whole simulation of
// each TestRunAllocCeiling key, in a fresh session as one cppe-sim run pays.
// A fresh run builds the whole Table-I machine, so this is where the layout
// of the per-machine structures — TLBs, page table, chunk states, cache
// tags, trace records — shows.
//
// TotalAlloc is process-wide, so a runtime or test-framework allocation that
// lands inside the window counts too. The gate takes the smallest of three
// runs, which drops such strays. Each ceiling sits 15–17% above the count
// measured with go1.24 on linux/amd64 (931,464 / 1,029,552 / 1,095,464 /
// 956,184 bytes; repeats differ by under 6 KB, GOMAXPROCS 1 and 2 agree,
// and -race adds under 1 KB). A Go release that changes what its
// runtime or standard library allocates can move the counts; remeasure them
// (the test logs each run) before moving a ceiling.
func TestRunBytesCeiling(t *testing.T) {
	for _, tc := range []struct {
		bench, setup string
		ceiling      uint64
	}{
		{"SRD", SetupCPPE, 1_090_000},
		{"HIS", SetupLearned, 1_190_000},
		{"STN", SetupDisableOnFull, 1_280_000},
		{"BFS", SetupTree, 1_120_000},
	} {
		t.Run(tc.bench+"/"+tc.setup, func(t *testing.T) {
			req := Request{Benchmark: tc.bench, Setup: tc.setup, Oversubscription: 50}
			best := ^uint64(0)
			for range 3 {
				b := allocBytes(func() {
					if _, err := NewSession(Options{Scale: 0.05, Parallelism: 1}).Run(req); err != nil {
						t.Fatal(err)
					}
				})
				t.Logf("%s/%s@50 at scale 0.05: %d bytes", tc.bench, tc.setup, b)
				best = min(best, b)
			}
			if best > tc.ceiling {
				t.Errorf("%s/%s@50 at scale 0.05: %d bytes allocated, ceiling %d", tc.bench, tc.setup, best, tc.ceiling)
			}
		})
	}
}

// TestWarmAllocCeiling gates the allocations of runs that share a session,
// which hands each finished machine to the next run to reset in place
// instead of building a new one.
//
// The Fig. 8 sweep (92 runs at scale 0.05, Parallelism 2, fresh session)
// runs each key on a worker that holds one machine at a time, so it builds
// only the two machines its workers hold at once; the other runs recycle
// them, leaving about 34.5 allocations per simulation (policy objects,
// trace generation, results). Eight distinct keys run one after another
// through Run recycle one machine: runs 2–8 allocate about 36 each. Each
// ceiling sits about 15% above its count. Building a machine per run costs
// about 280 allocations more (TestRunAllocCeiling).
func TestWarmAllocCeiling(t *testing.T) {
	t.Run("fig8-sweep", func(t *testing.T) {
		s := NewSession(Options{Scale: 0.05, Parallelism: 2})
		a := mallocs(func() {
			if _, err := s.Experiment(ExpFig8); err != nil {
				t.Fatal(err)
			}
		})
		perSim := float64(a) / float64(s.CachedRuns())
		t.Logf("fig8 sweep at scale 0.05: %.1f allocs per simulation (%d over %d runs)", perSim, a, s.CachedRuns())
		if perSim > 39 {
			t.Errorf("fig8 sweep at scale 0.05: %.1f allocs per simulation, ceiling 39", perSim)
		}
	})
	t.Run("sequential-runs", func(t *testing.T) {
		keys := []Request{
			{Benchmark: "SRD", Setup: SetupCPPE, Oversubscription: 50},
			{Benchmark: "HIS", Setup: SetupLearned, Oversubscription: 75},
			{Benchmark: "STN", Setup: SetupDisableOnFull, Oversubscription: 50},
			{Benchmark: "BFS", Setup: SetupTree, Oversubscription: 0},
			{Benchmark: "NW", Setup: SetupBaseline, Oversubscription: 50},
			{Benchmark: "KMN", Setup: SetupRandom, Oversubscription: 75},
			{Benchmark: "HWL", Setup: SetupHPE, Oversubscription: 50},
			{Benchmark: "MVT", Setup: SetupCPPE, Oversubscription: 0},
		}
		s := NewSession(Options{Scale: 0.05, Parallelism: 1})
		s.MustRun(keys[0]) // builds the machine the other runs recycle
		a := mallocs(func() {
			for _, k := range keys[1:] {
				s.MustRun(k)
			}
		})
		perRun := float64(a) / float64(len(keys)-1)
		t.Logf("runs 2-%d of one session: %.1f allocs per run", len(keys), perRun)
		if perRun > 42 {
			t.Errorf("runs 2-%d of one session: %.1f allocs per run, ceiling 42", len(keys), perRun)
		}
	})
}

// mallocs returns the number of heap allocations f makes. Unlike
// testing.AllocsPerRun it runs f once, so a session's first run is measured
// rather than spent on warm-up.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// allocBytes returns the number of heap bytes f allocates.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
