package cppe

import "testing"

// TestRunAllocCeiling gates the allocations of one whole simulation per policy
// family at scale 0.05 and 50% oversubscription, in a fresh session.
// Allocation counts are deterministic, so a hot path that starts allocating
// per event — a fault, a plan, a victim selection — shows up here at once.
// Nearly all of what remains is machine construction; each ceiling sits about
// 15% above the measured count (1,237 / 1,900 / 1,189 / 1,329, a few dozen
// more under -race).
func TestRunAllocCeiling(t *testing.T) {
	for _, tc := range []struct {
		bench, setup string
		ceiling      float64
	}{
		{"SRD", SetupCPPE, 1425},
		{"HIS", SetupLearned, 2200},
		{"STN", SetupDisableOnFull, 1375},
		{"BFS", SetupTree, 1530},
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
