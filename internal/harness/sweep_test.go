package harness

import "testing"

// TestSweepStatsAccounting checks the sweep aggregate: after a sweep, the
// committed totals must equal the sum over per-key Results, with one commit
// per run, so the commit count is far below the access count.
func TestSweepStatsAccounting(t *testing.T) {
	var keys []Key
	for _, b := range []string{"SRD", "HSD"} {
		for _, su := range []string{"baseline", "cppe", "random", "learned"} {
			for _, pct := range []int{75, 50} {
				keys = append(keys, Key{Bench: b, Setup: su, OversubPct: pct})
			}
		}
	}
	s := NewSession(Config{Scale: 0.05, Warps: 32, Parallelism: 2})
	s.Warm(keys)

	var wantRuns, wantCycles, wantAccesses, wantFaults, wantMigrated, wantEvicted uint64
	for _, k := range keys {
		r := s.Run(k)
		if r.Err != nil {
			t.Fatalf("run %v failed: %v", k, r.Err)
		}
		wantRuns++
		wantCycles += uint64(r.Cycles)
		wantAccesses += r.Accesses
		wantFaults += r.UVM.FaultEvents
		wantMigrated += r.UVM.MigratedPages
		wantEvicted += r.UVM.EvictedPages
	}

	st := s.SweepStats()
	if st.Runs != wantRuns || st.Cycles != wantCycles || st.Accesses != wantAccesses ||
		st.Faults != wantFaults || st.MigratedPages != wantMigrated || st.EvictedPages != wantEvicted {
		t.Errorf("committed totals disagree with summed results:\n got %+v\nwant runs=%d cycles=%d accesses=%d faults=%d migrated=%d evicted=%d",
			st, wantRuns, wantCycles, wantAccesses, wantFaults, wantMigrated, wantEvicted)
	}
	if st.Commits != wantRuns {
		t.Errorf("commits = %d, want one per run (%d)", st.Commits, wantRuns)
	}
	if st.Commits >= st.Accesses {
		t.Errorf("commits (%d) not amortized below accesses (%d)", st.Commits, st.Accesses)
	}

	// Per-run path must not touch the sweep aggregate.
	cold := NewSession(Config{Scale: 0.05, Warps: 32, Parallelism: 2})
	cold.Run(keys[0])
	if got := cold.SweepStats(); got.Runs != 0 || got.Commits != 0 {
		t.Errorf("per-run path leaked into sweep stats: %+v", got)
	}
}
