package stats

import (
	"reflect"
	"sync"
	"testing"
)

func TestSweepDeltaAdd(t *testing.T) {
	a := SweepDelta{Runs: 1, Cycles: 10, Accesses: 100, Faults: 3, MigratedPages: 7, EvictedPages: 2}
	b := SweepDelta{Runs: 2, Cycles: 5, Accesses: 50, Faults: 1, MigratedPages: 4, EvictedPages: 9}

	var sum SweepDelta
	sum.Add(a)
	sum.Add(b)
	want := SweepDelta{Runs: 3, Cycles: 15, Accesses: 150, Faults: 4, MigratedPages: 11, EvictedPages: 11}
	if sum != want {
		t.Errorf("Add: got %+v, want %+v", sum, want)
	}

	// Every counter participates in Add: a fresh field added to SweepDelta
	// without updating it would fail here.
	if n := reflect.TypeOf(SweepDelta{}).NumField(); n != 6 {
		t.Errorf("SweepDelta has %d fields; update Add and this test", n)
	}
}

// TestSweepAggConcurrentShards pins the interleaving independence the
// aggregate claims: concurrent workers, each committing its own share of the
// sums, produce totals independent of schedule, with one table touch per
// Commit.
func TestSweepAggConcurrentShards(t *testing.T) {
	var agg SweepAgg
	const workers, commits = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < commits; i++ {
				agg.Commit(SweepDelta{Runs: 1, Accesses: 10})
			}
		}()
	}
	wg.Wait()
	got := agg.Totals()
	if got.Runs != workers*commits || got.Accesses != 10*workers*commits {
		t.Errorf("lost updates: %+v, want %d runs and %d accesses", got, workers*commits, 10*workers*commits)
	}
	if got.Commits != workers*commits {
		t.Errorf("commits: %d, want %d", got.Commits, workers*commits)
	}
}
