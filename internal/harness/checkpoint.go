package harness

import (
	"errors"
	"fmt"
	"os"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/snapshot"
)

// A checkpoint file is a replay record: one snapshot frame (magic, version,
// length, CRC32) whose payload is a "CKPT" envelope and nothing else. The
// envelope pins everything the resuming process must reproduce: the
// simulation key, the session knobs that shape workload generation, the
// complete derived system configuration (fault injection's ChaosSeed
// included), a fingerprint of the generated traces, the footprint, and the
// cycle the run had reached. A mismatch on any of them is a structured
// ErrCheckpointMismatch — the resume falls back to a fresh run instead of
// continuing a simulation it cannot reproduce. A matching envelope is
// restored by rebuilding the machine and replaying it to the recorded cycle:
// the simulation is deterministic, so the replayed machine is the one the
// checkpointed run paused with.

// ErrCheckpointMismatch reports a checkpoint that is well-formed but was taken
// by a session with different parameters (key, seed, scale, system
// configuration, or workload), so this session cannot replay it.
var ErrCheckpointMismatch = errors.New("harness: checkpoint does not match this session")

// The trace fingerprint in the envelope is workload.Fingerprint of the
// session's memoized trace (computed once per workload at generation time and
// reused here), so a resume detects workload drift even when every scalar
// session knob matches.

// writeCheckpoint atomically replaces path with the envelope of k's paused
// run. The temporary file lives in the same directory so the rename is atomic
// on POSIX filesystems; a process killed mid-write leaves the previous
// checkpoint intact.
func (s *Session) writeCheckpoint(path string, k Key, b *built) error {
	cfgJSON, err := memdef.ConfigJSON(b.cfg)
	if err != nil {
		return fmt.Errorf("harness: checkpoint %v: %w", k, err)
	}
	var w snapshot.Writer
	outer := w.BeginFrame()
	w.Mark("CKPT")
	w.PutString(k.Bench)
	w.PutString(k.Setup)
	w.PutInt(k.OversubPct)
	w.PutF64(s.cfg.Scale)
	w.PutInt(s.cfg.Warps)
	w.PutInt(s.cfg.AccessesPerPage)
	w.PutI64(s.cfg.Seed)
	w.PutBytes(cfgJSON)
	w.PutU64(b.traceHash())
	w.PutInt(b.footprint)
	w.PutU64(uint64(b.machine.Eng.Now()))
	w.EndFrame(outer)
	data, err := w.Bytes()
	if err != nil {
		return fmt.Errorf("harness: checkpoint %v: %w", k, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("harness: checkpoint %v: %w", k, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) // best-effort cleanup; a leftover is re-discarded on the next run
		return fmt.Errorf("harness: checkpoint %v: %w", k, err)
	}
	return nil
}

// RunCheckpointed executes one simulation like Run, additionally writing a
// resumable checkpoint to path roughly every `every` cycles of simulated time
// (at the first event boundary past each multiple). It acquires its machine
// like RunResumable: a valid leftover checkpoint of k at path is continued,
// which yields the same Result by resume equivalence, and any other leftover
// is removed. The last checkpoint stays on disk, and the result is cached
// like any other run.
func (s *Session) RunCheckpointed(k Key, path string, every memdef.Cycle) Result {
	s.mu.Lock()
	if r, ok := s.cache[k]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()
	r, _ := s.runResumable(k, runOpts{path: path, every: every})
	s.mu.Lock()
	s.cache[k] = r
	s.mu.Unlock()
	return r
}

// envelope is the parsed contents of one checkpoint file. It pins everything
// a resuming session must reproduce.
type envelope struct {
	key       Key
	scale     float64
	warps     int
	app       int
	seed      int64
	cfgJSON   string
	traceHash uint64
	footprint int
	cycle     memdef.Cycle
}

// readEnvelope reads and parses a checkpoint file without building anything.
// Errors cover unreadable files (os.ErrNotExist passes through for callers
// that treat a missing checkpoint as "start fresh") and corrupt, truncated or
// other-version frames.
func readEnvelope(path string) (*envelope, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("harness: resume: %w", err)
	}
	r, err := snapshot.Open(data)
	if err != nil {
		return nil, fmt.Errorf("harness: resume %s: %w", path, err)
	}
	r.ExpectMark("CKPT")
	env := &envelope{}
	env.key = Key{Bench: r.GetString(), Setup: r.GetString(), OversubPct: r.GetInt()}
	env.scale = r.GetF64()
	env.warps = r.GetInt()
	env.app = r.GetInt()
	env.seed = r.GetI64()
	env.cfgJSON = r.GetString()
	env.traceHash = r.GetU64()
	env.footprint = r.GetInt()
	env.cycle = memdef.Cycle(r.GetU64())
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("harness: resume %s: %w", path, err)
	}
	return env, nil
}

// restoreEnvelope validates env against this session, rebuilds the machine
// from the session's own recipe, and replays it to the envelope's cycle.
// RunUntil fires exactly the events at cycles up to that cycle, and the
// checkpointed run paused with no event between its last fired one and its
// boundary, so the replayed machine — clock, queue, fired-event count and
// every component — is the one the checkpointed run paused with.
// Mismatched sessions are structured ErrCheckpointMismatch.
func (s *Session) restoreEnvelope(path string, env *envelope) (*built, error) {
	if env.scale != s.cfg.Scale || env.warps != s.cfg.Warps || env.app != s.cfg.AccessesPerPage || env.seed != s.cfg.Seed {
		return nil, fmt.Errorf(
			"%w: checkpoint (scale=%v warps=%d accesses/page=%d seed=%d), session (scale=%v warps=%d accesses/page=%d seed=%d)",
			ErrCheckpointMismatch, env.scale, env.warps, env.app, env.seed,
			s.cfg.Scale, s.cfg.Warps, s.cfg.AccessesPerPage, s.cfg.Seed)
	}
	// buildChecked compares the envelope's trace hash against the memoized
	// workload's fingerprint before building, so a drifted workload is a
	// structured ErrTraceDrift instead of a silently regenerated trace.
	b, err := s.buildChecked(env.key, env.traceHash)
	if err != nil {
		return nil, fmt.Errorf("harness: resume %s: %w", path, err)
	}
	wantJSON, err := memdef.ConfigJSON(b.cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: resume %s: %w", path, err)
	}
	if env.cfgJSON != string(wantJSON) {
		return nil, fmt.Errorf("%w: system configuration differs for %v", ErrCheckpointMismatch, env.key)
	}
	if env.footprint != b.footprint {
		return nil, fmt.Errorf("%w: workload differs for %v", ErrCheckpointMismatch, env.key)
	}
	_, paused := b.machine.RunUntil(s.cfg.MaxEvents, env.cycle)
	if got := b.machine.Eng.Now(); !paused || got != env.cycle {
		return nil, fmt.Errorf("%w: replayed clock %d (paused %v), envelope says %d", snapshot.ErrCorrupt, got, paused, env.cycle)
	}
	return b, nil
}

// Resume continues a simulation from a checkpoint file: it validates the
// envelope against this session's configuration, rebuilds the machine,
// replays it to the checkpointed cycle, and runs to completion (still
// checkpointing to the same path every `every` cycles). The error return
// covers unreadable, corrupt, other-version or mismatched checkpoints — the
// caller decides whether to fall back to a fresh run. The completed result is
// cached under the checkpoint's key.
func (s *Session) Resume(path string, every memdef.Cycle) (Result, error) {
	env, err := readEnvelope(path)
	if err != nil {
		return Result{}, err
	}
	b, err := s.restoreEnvelope(path, env)
	if err != nil {
		return Result{}, err
	}
	k := env.key

	out := func() (out Result) {
		defer recoverRunStack(k, &out)
		out, _ = s.drive(k, b, runOpts{path: path, every: every})
		return out
	}()
	s.mu.Lock()
	s.cache[k] = out
	s.mu.Unlock()
	return out, nil
}
