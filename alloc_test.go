package cppe

import "testing"

// runAllocCeiling is the pinned allocation budget of one SRD/cppe@50 run at
// scale 0.05 in a fresh session. The run takes about 2,800 allocations (about
// 3,000 under -race), nearly all of them machine construction; before the
// far-fault path became allocation-free it took about 10,800.
const runAllocCeiling = 3500

// TestRunAllocCeiling gates the allocations of one whole simulation under
// runAllocCeiling. Allocation counts are deterministic, so a hot path that
// starts allocating per event shows up here at once.
func TestRunAllocCeiling(t *testing.T) {
	req := Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}
	run := func() {
		if _, err := NewSession(Options{Scale: 0.05, Parallelism: 1}).Run(req); err != nil {
			t.Fatal(err)
		}
	}
	if a := testing.AllocsPerRun(3, run); a > runAllocCeiling {
		t.Errorf("SRD/cppe@50 at scale 0.05: %v allocs per run, ceiling %d", a, runAllocCeiling)
	}
}
