package harness

import (
	"errors"
	"fmt"
	"math"
	"os"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/workload"
)

// This file is the job surface the service layer (internal/serve) drives:
// content-addressed run identity (EnvelopeID) and one entry point
// (RunResumable) that runs in epochs, can park at any epoch boundary on
// request, and, given a checkpoint path, checkpoints at each boundary,
// resumes from a valid checkpoint and cleans up after itself. The harness
// stays free of goroutines, clocks, and sockets — the service layer owns
// those; this layer only guarantees that a checkpointed run interrupted at
// any point (kill -9 included) continues from its last checkpoint to a
// bit-for-bit identical Result.

// ErrParked reports that RunResumable stopped at an epoch boundary because
// its stop hook asked it to. A checkpoint, if the run had a path, stays on
// disk; a later RunResumable with the same key and path continues from it.
var ErrParked = errors.New("harness: run parked at epoch boundary")

// EnvelopeID returns a stable content fingerprint of one simulation under
// this session: FNV-1a over exactly the identity a checkpoint envelope pins —
// the key, the session knobs that shape workload generation and policy
// seeding, the derived system-configuration JSON, and the memoized trace's
// fingerprint. Two processes compute equal IDs iff a checkpoint taken by one
// could be resumed by the other, which also makes the ID a sound
// content-address for cached Results.
func (s *Session) EnvelopeID(k Key) (uint64, error) {
	bench, ok := workload.ByAbbr(k.Bench)
	if !ok {
		return 0, fmt.Errorf("%w: benchmark %q", ErrUnknownKey, k.Bench)
	}
	if _, err := s.ResolveSetup(k.Setup); err != nil {
		return 0, err
	}
	g := s.generated(bench)
	cfg := s.cfg.Base
	cfg.MemoryPages = capacityFor(g.FootprintPages, k.OversubPct)
	cfgJSON, err := memdef.ConfigJSON(cfg)
	if err != nil {
		return 0, fmt.Errorf("harness: envelope id %v: %w", k, err)
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixByte := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	mixU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			mixByte(byte(v))
			v >>= 8
		}
	}
	mixStr := func(str string) {
		mixU64(uint64(len(str)))
		for i := 0; i < len(str); i++ {
			mixByte(str[i])
		}
	}
	mixStr(k.Bench)
	mixStr(k.Setup)
	mixU64(uint64(int64(k.OversubPct)))
	mixU64(math.Float64bits(s.cfg.Scale))
	mixU64(uint64(int64(s.cfg.Warps)))
	mixU64(uint64(int64(s.cfg.AccessesPerPage)))
	mixU64(uint64(s.cfg.Seed))
	mixStr(string(cfgJSON))
	mixU64(g.Fingerprint())
	return h, nil
}

// Progress describes one epoch boundary of a resumable run, delivered to the
// progress hook of RunResumable (after the checkpoint bytes are durable, when
// the run checkpoints). It is the service layer's window into a running
// simulation:
// everything else about the run stays single-goroutine and deterministic, and
// the hook is called at deterministic simulation points (every `every`
// cycles), so observing progress cannot perturb the result.
type Progress struct {
	// Key identifies the simulation.
	Key Key
	// Cycle is the simulated time of the boundary.
	Cycle memdef.Cycle
	// Checkpoints counts the epoch boundaries of this attempt, each a
	// checkpoint write when the run has a path (resuming from an earlier
	// attempt's checkpoint restarts the count at 1).
	Checkpoints int
}

// RunResumable executes one simulation in epochs of `every` cycles with
// service hooks. At each epoch boundary the progress hook (nil = none)
// receives a Progress snapshot, and then the stop hook (nil = never) is
// consulted: a true return parks the run and RunResumable returns ErrParked
// with a zero Result. The progress hook must not mutate simulation state and
// should return quickly, since the simulation is paused while it runs.
//
// An empty path means no checkpoint: the run starts at cycle 0, and no file
// is read, written or removed. With a path, a valid checkpoint of k (taken
// under this session's parameters) there is continued; a leftover checkpoint
// that is corrupt, truncated, or belongs to a different simulation is
// removed and the run starts fresh — never silently resumed, never left
// behind. The run then checkpoints to path at each boundary, before the
// hooks run, and a parked run leaves its checkpoint on disk. Terminal
// outcomes delete the checkpoint when the run completed or thrash-aborted
// cleanly (Err == nil); a run that died with an error keeps its last
// checkpoint so a retry can continue instead of starting over.
//
// RunResumable neither reads nor fills the session's result cache: the
// caller's own store is the cache of a resumable job, so every call runs the
// simulation and a long-lived session does not grow with the jobs it serves.
func (s *Session) RunResumable(k Key, path string, every memdef.Cycle, stop func() bool, progress func(Progress)) (Result, error) {
	out, parked := s.runResumable(k, runOpts{path: path, every: every, stop: stop, progress: progress})
	if parked {
		return Result{}, ErrParked
	}
	if path != "" && (!out.Crashed || out.Err == nil) {
		// Terminal simulation outcome (including modeled thrash aborts): the
		// checkpoint has served its purpose.
		_ = os.Remove(path)          // best-effort cleanup; a leftover is re-discarded on the next run
		_ = os.Remove(path + ".tmp") // best-effort cleanup; a leftover is re-discarded on the next run
	}
	return out, nil
}

// runResumable acquires k's machine through resumeOrBuild at o.path and
// drives it under o.
func (s *Session) runResumable(k Key, o runOpts) (out Result, parked bool) {
	defer recoverRunStack(k, &out)
	b, err := s.resumeOrBuild(k, o.path)
	if err != nil {
		return Result{Key: k, Crashed: true, Err: err}, false
	}
	return s.drive(k, b, o)
}

// resumeOrBuild restores the machine from a usable checkpoint of k at path,
// or builds it fresh. An unusable leftover (corrupt, mismatched session, or
// another simulation's checkpoint) is removed — not just ignored — so the
// fresh run's own checkpoints replace it cleanly and no later resume can
// trust it; a fresh run that finishes before its first checkpoint would
// otherwise leave it for a later resume to continue. A half-written
// temporary from a killed checkpoint write is always removed.
func (s *Session) resumeOrBuild(k Key, path string) (*built, error) {
	if path == "" {
		return s.build(k)
	}
	_ = os.Remove(path + ".tmp") // best-effort cleanup; a leftover is re-discarded on the next run
	env, err := readEnvelope(path)
	if err == nil && env.key == k {
		b, rerr := s.restoreEnvelope(path, env)
		if rerr == nil {
			return b, nil
		}
		err = rerr
	} else if err == nil {
		err = fmt.Errorf("%w: checkpoint is for %v, not %v", ErrCheckpointMismatch, env.key, k)
	}
	if !errors.Is(err, os.ErrNotExist) {
		_ = os.Remove(path) // best-effort cleanup; a leftover is re-discarded on the next run
	}
	return s.build(k)
}
