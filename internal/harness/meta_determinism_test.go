package harness

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// perturbHeap churns the allocator with a randomized population of maps so
// the next simulation starts from a different heap layout, different map
// bucket geometry, and different per-map hash seeds. If any simulation result
// depends on map iteration order or address-derived state, runs separated by
// this churn diverge. The garbage is kept reachable until the function
// returns so the allocations cannot be elided.
func perturbHeap(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	keep := make([]map[uint64]uint64, 0, 64)
	total := 0
	for i := 0; i < 64; i++ {
		m := make(map[uint64]uint64, rng.Intn(512))
		n := 1 + rng.Intn(2048)
		for j := 0; j < n; j++ {
			m[rng.Uint64()] = rng.Uint64()
		}
		for k := range m {
			// Partially drain to leave tombstoned buckets behind.
			if k%3 == 0 {
				delete(m, k)
			}
		}
		total += len(m)
		keep = append(keep, m)
	}
	runtime.GC()
	return total
}

// TestDeterminismUnderRuntimePerturbation is the meta-test for the cppe-lint
// determinism contract: the same golden configuration must produce
// bit-identical Results when the Go runtime environment differs in every way
// the lint rules exist to guard against — scheduler width (GOMAXPROCS) and
// map allocation pattern / hash seeding. A failure here means some simulation
// state leaks in from the host runtime, exactly the class of bug mapiter /
// gofreeze / globalrand make structurally impossible.
func TestDeterminismUnderRuntimePerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	key := Key{Bench: "NW", Setup: "cppe", OversubPct: 50}
	cfg := Config{Scale: 0.05, Warps: 32, Parallelism: 4}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	// Run 1: single-threaded runtime, cold heap.
	runtime.GOMAXPROCS(1)
	first := NewSession(cfg).Run(key)

	// Run 2: wide runtime, heap churned with one map-population pattern.
	runtime.GOMAXPROCS(max(4, prev))
	if perturbHeap(1) == 0 {
		t.Fatal("heap perturbation degenerate")
	}
	second := NewSession(cfg).Run(key)

	// Run 3: restored width, a different churn pattern.
	runtime.GOMAXPROCS(prev)
	if perturbHeap(0xC0FFEE) == 0 {
		t.Fatal("heap perturbation degenerate")
	}
	third := NewSession(cfg).Run(key)

	if first.Err != nil || first.Cycles == 0 || first.Accesses == 0 {
		t.Fatalf("degenerate run: %+v", first)
	}
	if !reflect.DeepEqual(stripKey(first), stripKey(second)) {
		t.Errorf("GOMAXPROCS=1 vs wide + churned heap diverged:\n run1: %+v\n run2: %+v", first, second)
	}
	if !reflect.DeepEqual(stripKey(first), stripKey(third)) {
		t.Errorf("second churn pattern diverged:\n run1: %+v\n run3: %+v", first, third)
	}
}

// TestCheckpointDeterminismUnderRuntimePerturbation extends the runtime
// perturbation contract across the checkpoint boundary: a run that is
// checkpointed under one scheduler width and heap layout, then resumed and
// finished in a fresh session under a different width and a churned heap, must
// produce the same bit-identical Result as an uninterrupted single-threaded
// run. Resuming replays the run to the checkpointed cycle, so any machine
// state that depends on the runtime (or is rebuilt in an
// allocation-order-dependent way) diverges here.
func TestCheckpointDeterminismUnderRuntimePerturbation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	key := Key{Bench: "NW", Setup: "cppe", OversubPct: 50}
	cfg := Config{Scale: 0.05, Warps: 32, Parallelism: 4}
	path := filepath.Join(t.TempDir(), "meta.ckpt")

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	// Reference: uninterrupted run on a single-threaded runtime.
	runtime.GOMAXPROCS(1)
	want := NewSession(cfg).Run(key)
	if want.Err != nil || want.Cycles == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}

	// Checkpointed run: wide runtime, churned heap.
	runtime.GOMAXPROCS(max(4, prev))
	if perturbHeap(7) == 0 {
		t.Fatal("heap perturbation degenerate")
	}
	ck := NewSession(cfg).RunCheckpointed(key, path, want.Cycles/3)
	if !reflect.DeepEqual(stripKey(want), stripKey(ck)) {
		t.Errorf("checkpointed run under wide runtime diverged:\n ref: %+v\n ck:  %+v", want, ck)
	}

	// Resume the leftover mid-run checkpoint in a fresh session under yet
	// another width and churn pattern.
	runtime.GOMAXPROCS(prev)
	if perturbHeap(0xBEEF) == 0 {
		t.Fatal("heap perturbation degenerate")
	}
	res, err := NewSession(cfg).Resume(path, 0)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(stripKey(want), stripKey(res)) {
		t.Errorf("restored run diverged:\n ref: %+v\n res: %+v", want, res)
	}
}
