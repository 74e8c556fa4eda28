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
// (RunResumable) that runs in epochs and can park at any epoch boundary on
// request. The harness stays free of goroutines, clocks, and sockets — the
// service layer owns those. A parked or interrupted run (kill -9 included)
// is continued by running it again from cycle 0: the simulation is
// deterministic, so the rerun reaches a bit-for-bit identical Result.

// ErrParked reports that RunResumable stopped at an epoch boundary because
// its stop hook asked it to. A later RunResumable with the same key runs the
// simulation again from cycle 0.
var ErrParked = errors.New("harness: run parked at epoch boundary")

// EnvelopeID returns a stable content fingerprint of one simulation under
// this session: FNV-1a over exactly the identity a run record pins — the key,
// the session knobs that shape workload generation and policy seeding, the
// derived system-configuration JSON, and the memoized trace's fingerprint.
// Two processes compute equal IDs iff they would run the same simulation,
// which makes the ID a sound content-address for cached Results.
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
// progress hook of RunResumable (after the run record is written, when the
// run has a path). It is the service layer's window into a running
// simulation: everything else about the run stays single-goroutine and
// deterministic, and the hook is called at deterministic simulation points
// (every `every` cycles), so observing progress cannot perturb the result.
type Progress struct {
	// Key identifies the simulation.
	Key Key
	// Cycle is the simulated time of the boundary.
	Cycle memdef.Cycle
}

// RunResumable executes one simulation from cycle 0 in epochs of `every`
// cycles with service hooks. At each epoch boundary the progress hook (nil =
// none) receives the boundary's Progress, and then the stop hook (nil =
// never) is consulted: a true return parks the run and RunResumable returns
// ErrParked with a zero Result. The progress hook must not mutate simulation
// state and should return quickly, since the simulation is paused while it
// runs.
//
// An empty path means no file is touched. With a path, the run writes its
// run record there at each boundary, before the hooks run, and a record that
// cannot be written fails the run. Nothing reads the record: RunResumable
// removes path and its temporary on every return — completed, crashed,
// failed or parked.
//
// RunResumable neither reads nor fills the session's result cache: the
// caller's own store is the cache of a resumable job, so every call runs the
// simulation and a long-lived session does not grow with the jobs it serves.
func (s *Session) RunResumable(k Key, path string, every memdef.Cycle, stop func() bool, progress func(Progress)) (out Result, err error) {
	if path != "" {
		defer func() {
			_ = os.Remove(path)          // best-effort cleanup; nothing reads the record
			_ = os.Remove(path + ".tmp") // best-effort cleanup; nothing reads the record
		}()
	}
	defer recoverRunStack(k, &out)
	b, err := s.build(k)
	if err != nil {
		return Result{Key: k, Crashed: true, Err: err}, nil
	}
	out, parked := s.drive(k, b, runOpts{path: path, every: every, stop: stop, progress: progress})
	if parked {
		return Result{}, ErrParked
	}
	return out, nil
}
