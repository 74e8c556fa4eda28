package harness

import (
	"errors"
	"fmt"
	"math"
	"os"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/workload"
)

// This file is the resumable-job surface the service layer (internal/serve)
// drives: content-addressed run identity (EnvelopeID) and a single
// resume-or-fresh entry point (RunResumable) that checkpoints periodically,
// can park at any checkpoint boundary on request, and cleans up after itself.
// The harness stays free of goroutines, clocks, and sockets — the service
// layer owns those; this layer only guarantees that a run interrupted at any
// point (kill -9 included) can be continued from its last checkpoint to a
// bit-for-bit identical Result.

// ErrParked reports that RunResumable stopped at a checkpoint boundary
// because its stop hook asked it to. The checkpoint stays on disk; a later
// RunResumable with the same key and path continues from it.
var ErrParked = errors.New("harness: run parked at checkpoint boundary")

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
	mixU64(g.Fingerprint)
	return h, nil
}

// Progress describes one checkpoint boundary of a resumable run, delivered
// to the progress hook of RunResumableProgress immediately after the
// checkpoint bytes are durable. It is the service layer's window into a
// running simulation: everything else about the run stays single-goroutine
// and deterministic, and the hook is called at deterministic simulation
// points (every `every` cycles), so observing progress cannot perturb the
// result.
type Progress struct {
	// Key identifies the simulation.
	Key Key
	// Cycle is the simulated time of the checkpoint just written.
	Cycle memdef.Cycle
	// Checkpoints counts checkpoint writes in this attempt (resuming from an
	// earlier attempt's checkpoint restarts the count at 1).
	Checkpoints int
}

// RunResumable executes one simulation with kill-resilience and service
// hooks. If a valid checkpoint of k (taken under this session's parameters)
// exists at path, the run continues from it; a leftover checkpoint that is
// corrupt, truncated, or belongs to a different simulation is removed and the
// run starts fresh — never silently resumed, never left behind. The run then
// checkpoints to path every `every` cycles; after each checkpoint write the
// stop hook (nil = never) is consulted, and a true return parks the run: the
// checkpoint stays on disk and RunResumable returns ErrParked with a zero
// Result.
//
// Terminal outcomes delete the checkpoint when the run completed or thrash-
// aborted cleanly (Err == nil); a run that died with an error keeps its last
// checkpoint so a retry can continue instead of starting over. Only clean
// outcomes are cached in the session, so retrying an errored run actually
// reruns it.
func (s *Session) RunResumable(k Key, path string, every memdef.Cycle, stop func() bool) (Result, error) {
	return s.RunResumableProgress(k, path, every, stop, nil)
}

// RunResumableProgress is RunResumable with a progress hook: after every
// durable checkpoint write — and before the stop hook is consulted — the
// hook (nil = none) receives a Progress snapshot. The service layer drives
// sweep streaming off this callback; the hook must not mutate simulation
// state and should return quickly, since the simulation is paused while it
// runs.
func (s *Session) RunResumableProgress(k Key, path string, every memdef.Cycle, stop func() bool, progress func(Progress)) (Result, error) {
	s.mu.Lock()
	if r, ok := s.cache[k]; ok {
		s.mu.Unlock()
		return r, nil
	}
	s.mu.Unlock()
	out, parked := s.runResumable(k, path, every, stop, progress)
	if parked {
		return Result{}, ErrParked
	}
	if out.Err == nil {
		s.mu.Lock()
		s.cache[k] = out
		s.mu.Unlock()
	}
	if !out.Crashed || out.Err == nil {
		// Terminal simulation outcome (including modeled thrash aborts): the
		// checkpoint has served its purpose.
		_ = os.Remove(path)          // best-effort cleanup; a leftover is re-discarded on the next run
		_ = os.Remove(path + ".tmp") // best-effort cleanup; a leftover is re-discarded on the next run
	}
	return out, nil
}

func (s *Session) runResumable(k Key, path string, every memdef.Cycle, stop func() bool, progress func(Progress)) (out Result, parked bool) {
	defer recoverRun(k, &out)
	b, err := s.resumeOrBuild(k, path)
	if err != nil {
		return Result{Key: k, Crashed: true, Err: err}, false
	}
	if every <= 0 || path == "" {
		return s.collect(k, b, b.machine.Run(s.cfg.MaxEvents)), false
	}
	checkpoints := 0
	for {
		res, paused := b.machine.RunUntil(s.cfg.MaxEvents, b.machine.Eng.Now()+every)
		if !paused {
			return s.collect(k, b, res), false
		}
		if err := s.writeCheckpoint(path, k, b); err != nil {
			// Fail-stop: a resumable run that cannot persist its checkpoint is
			// reported, not silently degraded to a non-resumable one.
			return Result{Key: k, Crashed: true, Err: err,
				FootprintPages: b.footprint, CapacityPages: b.cfg.MemoryPages}, false
		}
		checkpoints++
		if progress != nil {
			progress(Progress{Key: k, Cycle: b.machine.Eng.Now(), Checkpoints: checkpoints})
		}
		if stop != nil && stop() {
			return Result{}, true
		}
	}
}

// resumeOrBuild restores the machine from a usable checkpoint of k at path,
// or builds it fresh. An unusable leftover (corrupt, mismatched session, or
// another simulation's checkpoint) is removed — not just ignored — so the
// fresh run's own checkpoints replace it cleanly and no later resume can
// trust it (see discardStaleCheckpoint).
func (s *Session) resumeOrBuild(k Key, path string) (*built, error) {
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
		_ = os.Remove(path)          // best-effort cleanup; a leftover is re-discarded on the next run
		_ = os.Remove(path + ".tmp") // best-effort cleanup; a leftover is re-discarded on the next run
	}
	return s.build(k)
}
