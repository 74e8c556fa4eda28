package harness

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/reproductions/cppe/internal/workload"
)

func sweepTestConfig() Config {
	return Config{Scale: 0.05, Warps: 32, Parallelism: 2}
}

// sweepTestKeys spans two workloads and several setups and rates, so a sweep
// shares each memoized trace across concurrent runs and hands machines from
// one key to the next. "learned" is in the set deliberately: it reads machine
// state through policy.MachineView on every victim selection, so sweep-vs-solo
// equivalence here is the property test that the view observes identical
// state on recycled and fresh machines.
func sweepTestKeys() []Key {
	var keys []Key
	for _, b := range []string{"SRD", "HSD"} {
		for _, su := range []string{"baseline", "cppe", "random", "learned"} {
			for _, pct := range []int{75, 50} {
				keys = append(keys, Key{Bench: b, Setup: su, OversubPct: pct})
			}
		}
	}
	return keys
}

// resultJSON renders results to the byte-exact form the determinism contract
// is stated over.
func resultJSON(t *testing.T, rs []Result) []byte {
	t.Helper()
	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatalf("marshal results: %v", err)
	}
	return data
}

// TestLockstepSweepMatchesPerRunPath is the sweep determinism regression: a
// Session.Warm sweep must produce byte-identical Result JSON to the per-run
// path (Session.Run on a cold session, one simulation per key in order), at
// every scheduler width. A divergence means the worker pool, trace sharing,
// machine recycling, or the sweep stats leaked into simulation state.
func TestLockstepSweepMatchesPerRunPath(t *testing.T) {
	keys := sweepTestKeys()

	// Reference: per-run path, no Warm, fresh session.
	ref := NewSession(sweepTestConfig())
	var want []Result
	for _, k := range keys {
		want = append(want, ref.Run(k))
	}
	for _, r := range want {
		if r.Err != nil || r.Cycles == 0 {
			t.Fatalf("degenerate reference run %v: %+v", r.Key, r)
		}
	}
	wantJSON := resultJSON(t, want)

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, width := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(width)
		s := NewSession(sweepTestConfig())
		s.Warm(keys)
		var got []Result
		for _, k := range keys {
			got = append(got, s.Run(k))
		}
		if gotJSON := resultJSON(t, got); string(gotJSON) != string(wantJSON) {
			t.Errorf("GOMAXPROCS=%d: sweep results differ from per-run path\n got: %s\nwant: %s",
				width, gotJSON, wantJSON)
		}
	}
}

// TestSweepStatsAccounting checks the sweep aggregate: after a sweep, the
// committed totals must equal the sum over per-key Results, with one commit
// per run, so the commit count is far below the access count.
func TestSweepStatsAccounting(t *testing.T) {
	keys := sweepTestKeys()
	s := NewSession(sweepTestConfig())
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
	cold := NewSession(sweepTestConfig())
	cold.Run(keys[0])
	if got := cold.SweepStats(); got.Runs != 0 || got.Commits != 0 {
		t.Errorf("per-run path leaked into sweep stats: %+v", got)
	}
}

// TestTraceDriftFailsResume is the cache-correctness satellite: when the
// session's memoized trace carries a fingerprint different from the one the
// checkpoint envelope pinned, the resume must fail with ErrTraceDrift (a kind
// of ErrCheckpointMismatch) instead of silently replaying the run over
// a trace the checkpoint was not taken against.
func TestTraceDriftFailsResume(t *testing.T) {
	k := ckptKey()
	path := filepath.Join(t.TempDir(), "drift.ckpt")
	if r := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, 150_000); r.Err != nil {
		t.Fatalf("checkpointed run failed: %v", r.Err)
	}

	s := NewSession(checkpointTestConfig())
	bench, ok := workload.ByAbbr(k.Bench)
	if !ok {
		t.Fatalf("unknown bench %q", k.Bench)
	}
	s.traces.Poison(bench, workload.Options{
		Scale:           s.cfg.Scale,
		Warps:           s.cfg.Warps,
		AccessesPerPage: s.cfg.AccessesPerPage,
		Seed:            s.cfg.Seed,
	}, 0xDEAD)

	_, err := s.Resume(path, 0)
	if !errors.Is(err, ErrTraceDrift) {
		t.Fatalf("resume over poisoned trace: err = %v, want ErrTraceDrift", err)
	}
	if !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("ErrTraceDrift must remain a kind of ErrCheckpointMismatch (got %v)", err)
	}

	// An un-poisoned session still resumes cleanly from the same file.
	if _, err := NewSession(checkpointTestConfig()).Resume(path, 0); err != nil {
		t.Errorf("clean session failed to resume: %v", err)
	}
}

// TestBuildCheckedRejectsForeignHash covers the drift check on the build path
// directly, without a checkpoint file.
func TestBuildCheckedRejectsForeignHash(t *testing.T) {
	s := NewSession(sweepTestConfig())
	k := Key{Bench: "SRD", Setup: "cppe", OversubPct: 50}

	b, err := s.build(k)
	if err != nil {
		t.Fatalf("unpinned build: %v", err)
	}
	if _, err := s.buildChecked(k, b.traceHash()); err != nil {
		t.Fatalf("matching pin rejected: %v", err)
	}
	if _, err := s.buildChecked(k, b.traceHash()^1); !errors.Is(err, ErrTraceDrift) {
		t.Errorf("mismatched pin: err = %v, want ErrTraceDrift", err)
	}
}
