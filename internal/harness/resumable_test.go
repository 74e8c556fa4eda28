package harness

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
)

// TestRunResumableMatchesRun pins the service-layer contract: a run that
// parks at a checkpoint boundary and is continued by a later RunResumable
// (fresh session, as after a process restart) finishes with a Result
// bit-for-bit identical to an uninterrupted run, and cleans its checkpoint up.
// RunResumable never touches the session's result cache: the run that parks
// is on the session that already ran k, and the resuming session caches
// nothing.
func TestRunResumableMatchesRun(t *testing.T) {
	k := ckptKey()
	ref := NewSession(checkpointTestConfig())
	want := ref.Run(k)
	if want.Err != nil {
		t.Fatalf("reference run failed: %v", want.Err)
	}

	path := filepath.Join(t.TempDir(), "job.ckpt")
	parks := 0
	_, err := ref.RunResumable(k, path, want.Cycles/7, func() bool {
		parks++
		return parks >= 2 // park at the second checkpoint boundary
	}, nil)
	if !errors.Is(err, ErrParked) {
		t.Fatalf("err = %v, want ErrParked", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("parked run left no checkpoint: %v", err)
	}

	resumer := NewSession(checkpointTestConfig())
	got, err := resumer.RunResumable(k, path, want.Cycles/7, nil, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if n := resumer.CachedRuns(); n != 0 {
		t.Errorf("RunResumable cached %d results in the session, want none", n)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("completed run left its checkpoint behind (err=%v)", err)
	}
}

// TestRunResumableRemovesStaleCheckpoint asserts the stale-cleanup contract:
// a leftover .ckpt whose envelope does not match the requested simulation is
// removed after the fresh-run fallback, not just ignored — even when the
// fresh run completes without ever writing a checkpoint of its own.
func TestRunResumableRemovesStaleCheckpoint(t *testing.T) {
	k := ckptKey()
	other := Key{Bench: "HSD", Setup: "cppe", OversubPct: 50}
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")

	plant := func(t *testing.T) {
		t.Helper()
		s := NewSession(checkpointTestConfig())
		b, err := s.build(other)
		if err != nil {
			t.Fatalf("build: %v", err)
		}
		if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, 150_000); !paused {
			t.Fatal("planted run finished before its checkpoint cycle")
		}
		if err := s.writeCheckpoint(path, other, b); err != nil {
			t.Fatalf("planting checkpoint: %v", err)
		}
	}

	t.Run("mismatched-key", func(t *testing.T) {
		plant(t)
		// A huge `every` means the fresh run never writes a checkpoint, so
		// only the explicit stale cleanup can remove the leftover.
		r, err := NewSession(checkpointTestConfig()).RunResumable(k, path, 1<<40, nil, nil)
		if err != nil || r.Err != nil {
			t.Fatalf("fresh-run fallback failed: %v / %v", err, r.Err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("mismatched leftover survived the fallback (err=%v)", err)
		}
	})

	t.Run("mismatched-session", func(t *testing.T) {
		plant(t)
		cfg := checkpointTestConfig()
		cfg.Seed = 77
		r, err := NewSession(cfg).RunResumable(other, path, 1<<40, nil, nil)
		if err != nil || r.Err != nil {
			t.Fatalf("fresh-run fallback failed: %v / %v", err, r.Err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("mismatched-session leftover survived the fallback (err=%v)", err)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path+".tmp", []byte("torn write"), 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := NewSession(checkpointTestConfig()).RunResumable(k, path, 1<<40, nil, nil)
		if err != nil || r.Err != nil {
			t.Fatalf("fresh-run fallback failed: %v / %v", err, r.Err)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("corrupt leftover survived the fallback (err=%v)", err)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("torn temporary survived the fallback (err=%v)", err)
		}
	})
}

// TestRunCheckpointedRemovesStaleCheckpoint covers the same contract on the
// RunCheckpointed path: a quick run that finishes before its first pause
// boundary must still remove a mismatched leftover at its checkpoint path.
func TestRunCheckpointedRemovesStaleCheckpoint(t *testing.T) {
	k := ckptKey()
	dir := t.TempDir()
	path := filepath.Join(dir, "job.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if r := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, 1<<40); r.Err != nil {
		t.Fatalf("run failed: %v", r.Err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale leftover survived RunCheckpointed (err=%v)", err)
	}
}

// TestEnvelopeIDStability pins the content-address semantics: equal sessions
// agree on the ID, every identity-bearing knob changes it, and unknown keys
// are structured errors.
func TestEnvelopeIDStability(t *testing.T) {
	k := ckptKey()
	a, err := NewSession(checkpointTestConfig()).EnvelopeID(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(checkpointTestConfig()).EnvelopeID(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equal sessions disagree: %#x vs %#x", a, b)
	}

	distinct := map[uint64]string{a: "base"}
	add := func(name string, id uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := distinct[id]; dup {
			t.Errorf("%s collides with %s: %#x", name, prev, id)
		}
		distinct[id] = name
	}

	id, err := NewSession(checkpointTestConfig()).EnvelopeID(Key{Bench: "HSD", Setup: "cppe", OversubPct: 50})
	add("bench", id, err)
	id, err = NewSession(checkpointTestConfig()).EnvelopeID(Key{Bench: "SRD", Setup: "baseline", OversubPct: 50})
	add("setup", id, err)
	id, err = NewSession(checkpointTestConfig()).EnvelopeID(Key{Bench: "SRD", Setup: "cppe", OversubPct: 75})
	add("rate", id, err)
	seeded := checkpointTestConfig()
	seeded.Seed = 7
	id, err = NewSession(seeded).EnvelopeID(k)
	add("seed", id, err)
	scaled := checkpointTestConfig()
	scaled.Scale = 0.1
	id, err = NewSession(scaled).EnvelopeID(k)
	add("scale", id, err)
	sys := checkpointTestConfig()
	sys.Base = memdef.DefaultConfig()
	sys.Base.PCIeGBs = 32
	id, err = NewSession(sys).EnvelopeID(k)
	add("system", id, err)

	if _, err := NewSession(checkpointTestConfig()).EnvelopeID(Key{Bench: "nope", Setup: "cppe"}); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown bench: err = %v, want ErrUnknownKey", err)
	}
	if _, err := NewSession(checkpointTestConfig()).EnvelopeID(Key{Bench: "SRD", Setup: "nope"}); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown setup: err = %v, want ErrUnknownKey", err)
	}
}

// boundaryCycles runs k on a fresh machine in epochs of every cycles and
// returns the clock at each pause: the cycles a resumable run reports.
func boundaryCycles(t *testing.T, k Key, every memdef.Cycle) []memdef.Cycle {
	t.Helper()
	s := NewSession(checkpointTestConfig())
	b, err := s.build(k)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	var cycles []memdef.Cycle
	for {
		if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, b.machine.Eng.Now()+every); !paused {
			return cycles
		}
		cycles = append(cycles, b.machine.Eng.Now())
	}
}

// TestRunResumableProgressHook pins the streaming contract: the progress hook
// fires once per epoch boundary, at exactly the cycles a machine paused every
// `every` cycles reaches, and observing the run does not change its Result.
// A run parked at the second boundary and resumed in a fresh session reports
// the remaining boundaries, the same cycles as the uninterrupted run.
func TestRunResumableProgressHook(t *testing.T) {
	k := ckptKey()
	want := NewSession(checkpointTestConfig()).Run(k)
	if want.Err != nil {
		t.Fatalf("reference run failed: %v", want.Err)
	}

	path := filepath.Join(t.TempDir(), "job.ckpt")
	every := want.Cycles / 7
	boundaries := boundaryCycles(t, k, every)
	if len(boundaries) < 3 {
		t.Fatalf("only %d epoch boundaries; the test needs at least 3", len(boundaries))
	}
	cyclesOf := func(ps []Progress) []memdef.Cycle {
		var out []memdef.Cycle
		for _, p := range ps {
			if p.Key != k {
				t.Errorf("progress key = %+v, want %+v", p.Key, k)
			}
			out = append(out, p.Cycle)
		}
		return out
	}
	var seen []Progress
	got, err := NewSession(checkpointTestConfig()).RunResumable(k, path, every, nil, func(p Progress) {
		seen = append(seen, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("observed run differs from reference:\n got %+v\nwant %+v", got, want)
	}
	if c := cyclesOf(seen); !reflect.DeepEqual(c, boundaries) {
		t.Errorf("progress cycles %v, want the epoch boundaries %v", c, boundaries)
	}

	parks := 0
	var firstLife []Progress
	_, err = NewSession(checkpointTestConfig()).RunResumable(k, path, every, func() bool {
		parks++
		return parks >= 2
	}, func(p Progress) { firstLife = append(firstLife, p) })
	if !errors.Is(err, ErrParked) {
		t.Fatalf("err = %v, want ErrParked", err)
	}
	var secondLife []Progress
	res, err := NewSession(checkpointTestConfig()).RunResumable(k, path, every, nil, func(p Progress) {
		secondLife = append(secondLife, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Errorf("parked-and-resumed result differs from reference")
	}
	if c := cyclesOf(firstLife); !reflect.DeepEqual(c, boundaries[:2]) {
		t.Errorf("first life reported %v, want %v", c, boundaries[:2])
	}
	if c := cyclesOf(secondLife); !reflect.DeepEqual(c, boundaries[2:]) {
		t.Errorf("resumed attempt reported %v, want the remaining boundaries %v", c, boundaries[2:])
	}
}

// TestEventBudgetCoversSegmentedRun pins MaxEvents as a budget per
// simulation: under a budget that binds, a run paused at epoch boundaries —
// without a checkpoint, with one, and parked then continued from it by a
// fresh session — renders the same Result JSON as a single Run.
func TestEventBudgetCoversSegmentedRun(t *testing.T) {
	render := func(r Result) string {
		msg := ""
		if r.Err != nil {
			msg = r.Err.Error()
		}
		data, err := json.Marshal(struct {
			Result
			Err string
		}{r, msg})
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	k := ckptKey()
	const every = 1 << 16
	for _, budget := range []uint64{50_000, 100_000} {
		cfg := checkpointTestConfig()
		cfg.MaxEvents = budget
		want := NewSession(cfg).Run(k)
		if !errors.Is(want.Err, engine.ErrBudget) {
			t.Fatalf("budget %d: reference run err = %v, want the budget to bind", budget, want.Err)
		}
		dir := t.TempDir()
		segmented := map[string]func() (Result, error){
			"no checkpoint": func() (Result, error) {
				return NewSession(cfg).RunResumable(k, "", every, nil, nil)
			},
			"checkpointed": func() (Result, error) {
				return NewSession(cfg).RunResumable(k, filepath.Join(dir, "ckpt"), every, nil, nil)
			},
			"parked and resumed": func() (Result, error) {
				path := filepath.Join(dir, "parked")
				if _, err := NewSession(cfg).RunResumable(k, path, every, func() bool { return true }, nil); !errors.Is(err, ErrParked) {
					t.Fatalf("budget %d: first life err = %v, want ErrParked", budget, err)
				}
				return NewSession(cfg).RunResumable(k, path, every, nil, nil)
			},
		}
		for name, run := range segmented {
			got, err := run()
			if err != nil {
				t.Fatalf("budget %d, %s: %v", budget, name, err)
			}
			if g, w := render(got), render(want); g != w {
				t.Errorf("budget %d, %s: segmented run differs from a single Run:\n got %s\nwant %s", budget, name, g, w)
			}
		}
	}
}
