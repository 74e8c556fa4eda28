package cppe

import (
	"encoding/json"
	"fmt"

	"github.com/reproductions/cppe/internal/harness"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/workload"
)

// This file is the service-facing facade surface: everything cppe-serve (and
// any other long-running embedder) needs to treat simulations as durable,
// content-addressed jobs — stable job identity, execution in epochs with
// stop and progress hooks, and canonical result rendering. The simulation
// core stays untouched; these are thin, validated wrappers over the harness
// layer.

// ErrParked reports that RunResumableProgress stopped at an epoch boundary
// because its stop hook asked it to; a later RunResumableProgress of the same
// request runs it again from cycle 0.
var ErrParked = harness.ErrParked

// JobID returns the stable content fingerprint of one simulation under this
// session, as 16 lowercase hex digits. It hashes exactly the identity a run
// record pins — the request, the session knobs, the derived
// system configuration JSON, and the workload trace's FNV fingerprint — so
// identical requests (to sessions with identical options) map to the same ID
// and can share one cached Result, while any knob that could change the
// outcome changes the ID.
func (s *Session) JobID(req Request) (string, error) {
	if err := s.validate(req); err != nil {
		return "", err
	}
	id, err := s.h.EnvelopeID(harness.Key{
		Bench: req.Benchmark, Setup: req.Setup, OversubPct: req.Oversubscription,
	})
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", id), nil
}

// RunResumableProgress executes one simulation from cycle 0 in epochs of
// everyCycles simulated cycles, with two service hooks. It neither reads nor
// fills the session's result cache (every call simulates; the caller's store
// is the cache). At each epoch boundary the progress callback (nil = none)
// receives the simulated cycle, then the stop hook (nil = never) is
// consulted: true parks the run there with ErrParked, and the next call runs
// it again from cycle 0 to the same Result.
//
// An empty path means no file is touched. With a path, the run writes a
// small run record there at each boundary, before the hooks; nothing reads
// it, and it is removed on every return. The hooks fire at deterministic
// simulation points, so observing progress cannot perturb the result;
// cppe-serve drives its sweep SSE events off them.
func (s *Session) RunResumableProgress(req Request, path string, everyCycles uint64, stop func() bool, progress func(cycle uint64)) (Result, error) {
	if err := s.validate(req); err != nil {
		return Result{}, err
	}
	k := harness.Key{Bench: req.Benchmark, Setup: req.Setup, OversubPct: req.Oversubscription}
	var hook func(harness.Progress)
	if progress != nil {
		hook = func(p harness.Progress) { progress(uint64(p.Cycle)) }
	}
	r, err := s.h.RunResumable(k, path, memdef.Cycle(everyCycles), stop, hook)
	if err != nil {
		return Result{}, err
	}
	return fromHarness(req, r), nil
}

// ResultJSON renders r exactly as `cppe-sim -json` prints it: indented JSON
// with the run error flattened to its message, terminated by one newline.
// Cached service results rendered with this function are byte-identical to
// the CLI's output for the same configuration and seed — the property the
// serve-smoke CI job diffs.
func ResultJSON(r Result) ([]byte, error) {
	// Err is an error interface value, which encoding/json renders as an
	// opaque {}; shadow it with its message so results round-trip through
	// scripts and diff byte-for-byte across runs.
	out := struct {
		Result
		Err string `json:",omitempty"`
	}{Result: r}
	if r.Err != nil {
		out.Err = r.Err.Error()
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(enc, '\n'), nil
}

// validate rejects malformed requests, with one message per field (shared by
// Run, JobID, and RunResumableProgress).
func (s *Session) validate(req Request) error {
	if _, ok := workload.ByAbbr(req.Benchmark); !ok {
		return fmt.Errorf("cppe: unknown benchmark %q (see Benchmarks())", req.Benchmark)
	}
	if _, err := s.h.ResolveSetup(req.Setup); err != nil {
		// Typed: errors.Is(err, ErrUnknownPolicy) for a bad "ev+pf" half.
		return fmt.Errorf("cppe: %w (see Setups, EvictionPolicies, Prefetchers)", err)
	}
	if req.Oversubscription < 0 || req.Oversubscription > 100 {
		return fmt.Errorf("cppe: oversubscription %d%% out of [0,100]", req.Oversubscription)
	}
	return nil
}
