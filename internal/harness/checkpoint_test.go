package harness

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/snapshot"
)

func checkpointTestConfig() Config {
	return Config{Scale: 0.05, Parallelism: 2}
}

func ckptKey() Key { return Key{Bench: "SRD", Setup: "cppe", OversubPct: 50} }

// TestRunCheckpointedMatchesRun pins the headline property at the harness
// layer: a run interrupted by periodic checkpoints produces a bit-for-bit
// identical Result to an uninterrupted run.
func TestRunCheckpointedMatchesRun(t *testing.T) {
	k := ckptKey()
	want := NewSession(checkpointTestConfig()).Run(k)
	if want.Err != nil {
		t.Fatalf("reference run failed: %v", want.Err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	got := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, want.Cycles/7)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("checkpointed result differs:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("no checkpoint left on disk: %v", err)
	}
}

// TestResumeContinuesToSameResult resumes the last on-disk checkpoint of a
// completed run in a brand-new session and expects the same final Result.
func TestResumeContinuesToSameResult(t *testing.T) {
	k := ckptKey()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	want := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, 150_000)
	if want.Err != nil {
		t.Fatalf("checkpointed run failed: %v", want.Err)
	}

	got, err := NewSession(checkpointTestConfig()).Resume(path, 150_000)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed result differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestResumeRejectsMismatchedSession(t *testing.T) {
	k := ckptKey()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if r := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, 150_000); r.Err != nil {
		t.Fatalf("checkpointed run failed: %v", r.Err)
	}

	other := checkpointTestConfig()
	other.Seed = 99
	if _, err := NewSession(other).Resume(path, 0); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("seed mismatch: err = %v, want ErrCheckpointMismatch", err)
	}

	scaled := checkpointTestConfig()
	scaled.Scale = 0.1
	if _, err := NewSession(scaled).Resume(path, 0); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("scale mismatch: err = %v, want ErrCheckpointMismatch", err)
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	k := ckptKey()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if r := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, 150_000); r.Err != nil {
		t.Fatalf("checkpointed run failed: %v", r.Err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := func(t *testing.T, mut []byte) {
		t.Helper()
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewSession(checkpointTestConfig()).Resume(path, 0); err == nil {
			t.Error("corrupt checkpoint resumed")
		}
	}
	t.Run("bitflip", func(t *testing.T) {
		mut := append([]byte(nil), data...)
		mut[len(mut)/2] ^= 0xff
		flip(t, mut)
	})
	t.Run("truncated", func(t *testing.T) {
		flip(t, data[:len(data)/3])
	})
	t.Run("empty", func(t *testing.T) {
		flip(t, nil)
	})
	t.Run("missing", func(t *testing.T) {
		os.Remove(path)
		if _, err := NewSession(checkpointTestConfig()).Resume(path, 0); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("missing file: err = %v, want fs not-exist", err)
		}
	})
}

// TestRunCheckpointedContinuesLeftover plants a valid mid-run checkpoint of
// the same key, as a killed checkpointed run leaves behind, and expects
// RunCheckpointed to continue it to the plain Run's Result JSON. The cadence
// is longer than the rest of the run, so the continued run writes no
// checkpoint and leaves the planted one in place; a fresh run would have
// replaced it with one at 3/4 of the run.
func TestRunCheckpointedContinuesLeftover(t *testing.T) {
	k := ckptKey()
	want := NewSession(checkpointTestConfig()).Run(k)
	if want.Err != nil || want.Cycles == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}

	s := NewSession(checkpointTestConfig())
	b, err := s.build(k)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, want.Cycles/2); !paused {
		t.Fatalf("run finished before cycle %d", want.Cycles/2)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := s.writeCheckpoint(path, k, b); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	planted := b.machine.Eng.Now()

	got := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, want.Cycles*3/4)
	if g, w := resultJSON(t, []Result{got}), resultJSON(t, []Result{want}); string(g) != string(w) {
		t.Errorf("continued result differs:\n got %s\nwant %s", g, w)
	}
	env, err := readEnvelope(path)
	if err != nil {
		t.Fatalf("no checkpoint left on disk: %v", err)
	}
	if env.cycle != planted {
		t.Errorf("checkpoint on disk is at cycle %d, want the planted one at %d: the run started over", env.cycle, planted)
	}
}

// TestResumeEquivalenceGoldenConfigs pins the headline resume-equivalence
// property across the golden setup families: for each configuration, a run
// checkpointed at three distinct mid-run cycles and resumed in a brand-new
// session must finish with a Result bit-for-bit identical to the
// uninterrupted run. The checkpoint cycle is controlled exactly by pausing
// the built machine at the chosen boundary before writing the checkpoint.
func TestResumeEquivalenceGoldenConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	keys := []Key{
		{Bench: "SRD", Setup: "baseline", OversubPct: 50},
		{Bench: "HSD", Setup: "random", OversubPct: 50},
		{Bench: "NW", Setup: "lru-20%", OversubPct: 50},
		{Bench: "B+T", Setup: "cppe", OversubPct: 50},
		{Bench: "2DC", Setup: "cppe", OversubPct: 75},
		{Bench: "KMN", Setup: "hpe", OversubPct: 50},
		{Bench: "HIS", Setup: "tree", OversubPct: 50},
	}
	for _, k := range keys {
		k := k
		t.Run(fmt.Sprintf("%s_%s_%d", k.Bench, k.Setup, k.OversubPct), func(t *testing.T) {
			want := NewSession(checkpointTestConfig()).Run(k)
			if want.Err != nil || want.Cycles == 0 {
				t.Fatalf("degenerate reference run: %+v", want)
			}
			for _, c := range []memdef.Cycle{want.Cycles / 5, want.Cycles / 2, want.Cycles * 4 / 5} {
				c := c
				t.Run(fmt.Sprintf("cycle_%d", c), func(t *testing.T) {
					s := NewSession(checkpointTestConfig())
					b, err := s.build(k)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, c); !paused {
						t.Fatalf("run finished before checkpoint cycle %d", c)
					}
					path := filepath.Join(t.TempDir(), "golden.ckpt")
					if err := s.writeCheckpoint(path, k, b); err != nil {
						t.Fatalf("checkpoint: %v", err)
					}
					got, err := NewSession(checkpointTestConfig()).Resume(path, 0)
					if err != nil {
						t.Fatalf("resume: %v", err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("resumed result differs at cycle %d:\n got %+v\nwant %+v", c, got, want)
					}
				})
			}
		})
	}
}

// TestChaosRunCheckpointsAndResumes checkpoints a run under fault injection
// (ChaosSeed 11) and resumes it in a fresh session: both must render the
// plain run's Result. A checkpoint records the configuration, seed included,
// and replay reproduces the injected schedule.
func TestChaosRunCheckpointsAndResumes(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.Base = memdef.DefaultConfig()
	cfg.Base.ChaosSeed = 11
	k := ckptKey()
	want := NewSession(cfg).Run(k)
	if want.Err != nil || want.Cycles == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}

	path := filepath.Join(t.TempDir(), "chaos.ckpt")
	got := NewSession(cfg).RunCheckpointed(k, path, want.Cycles/4)
	if g, w := resultJSON(t, []Result{got}), resultJSON(t, []Result{want}); string(g) != string(w) {
		t.Errorf("checkpointed run differs:\n got %s\nwant %s", g, w)
	}
	resumed, err := NewSession(cfg).Resume(path, 0)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if g, w := resultJSON(t, []Result{resumed}), resultJSON(t, []Result{want}); string(g) != string(w) {
		t.Errorf("resumed run differs:\n got %s\nwant %s", g, w)
	}
}

// TestOldVersionCheckpointStartsFresh: a checkpoint of another format version
// (version 2 files held encoded machine state) is a typed ErrVersion for
// Resume, and RunCheckpointed removes it and runs from cycle 0.
func TestOldVersionCheckpointStartsFresh(t *testing.T) {
	k := ckptKey()
	path := filepath.Join(t.TempDir(), "old.ckpt")
	want := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, 150_000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(data[4:], 2)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(checkpointTestConfig()).Resume(path, 0); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("resume of a version-2 file: err = %v, want ErrVersion", err)
	}
	got := NewSession(checkpointTestConfig()).RunCheckpointed(k, path, 1<<40)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("fresh run differs:\n got %+v\nwant %+v", got, want)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("version-2 leftover survived (err=%v)", err)
	}
}
