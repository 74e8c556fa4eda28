// Package harness runs the paper's experiments: it instantiates (benchmark,
// system setup, oversubscription rate) simulations, caches their results, and
// regenerates every table and figure of the evaluation section as text
// tables. Simulations are independent and deterministic, so the session fans
// them out over a bounded worker pool.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/sm"
	"github.com/reproductions/cppe/internal/stats"
	"github.com/reproductions/cppe/internal/trace"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/workload"
)

// Config parameterizes a session.
type Config struct {
	// Base is the system configuration (Table I). Zero -> DefaultConfig.
	Base memdef.Config
	// Scale is the workload footprint scale (default 0.1).
	Scale float64
	// Warps is the number of workload streams (default 64).
	Warps int
	// AccessesPerPage (default 2).
	AccessesPerPage int
	// Seed perturbs workload generation and the Random policy.
	Seed int64
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// MaxEvents bounds one simulation's event count (default 500M). The
	// budget covers the whole run: a run paused at epoch boundaries stops
	// where an uninterrupted run would.
	MaxEvents uint64
	// WatchdogWindow arms the engine's no-progress watchdog per run: a
	// same-cycle livelock that freezes the frontier for this much wall-clock
	// time fails the run with engine.ErrNoProgress instead of burning the
	// whole event budget. Zero selects 30s; negative disables the watchdog.
	WatchdogWindow time.Duration
	// SweepEpoch is a stepping cadence in simulated cycles for callers that
	// advance a machine in segments: benchmark/layers.go reads it to time its
	// traced runs epoch by epoch. The harness itself no longer reads it.
	// Zero selects 4M cycles.
	SweepEpoch memdef.Cycle
}

func (c Config) withDefaults() Config {
	if c.Base.NumSMs == 0 {
		c.Base = memdef.DefaultConfig()
	}
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.Warps == 0 {
		c.Warps = 64
	}
	if c.AccessesPerPage == 0 {
		c.AccessesPerPage = 2
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 500_000_000
	}
	if c.WatchdogWindow == 0 {
		c.WatchdogWindow = 30 * time.Second
	}
	if c.SweepEpoch == 0 {
		c.SweepEpoch = 1 << 22
	}
	return c
}

// ErrUnknownKey reports a Key naming a benchmark or setup that is not
// registered with the session.
var ErrUnknownKey = errors.New("harness: unknown benchmark or setup")

// ErrPanic wraps a panic recovered from one simulation run. The panicking
// run fails with the panic value and stack in Result.Err; the other runs of a
// parallel sweep are unaffected.
var ErrPanic = errors.New("harness: panic in simulation run")

// Key identifies one simulation.
type Key struct {
	Bench string
	Setup string
	// OversubPct is the percentage of the footprint that fits in GPU
	// memory: 75 or 50 in the paper; 0 means unlimited memory.
	OversubPct int
}

func (k Key) String() string {
	return fmt.Sprintf("%s/%s@%d%%", k.Bench, k.Setup, k.OversubPct)
}

// Result is one simulation's outcome.
type Result struct {
	Key     Key
	Cycles  memdef.Cycle
	Crashed bool
	// Err is the structured failure of the run, if any: ErrUnknownKey,
	// ErrPanic (with the recovered value and stack), a typed driver error
	// (uvm.ErrNoVictim, ...), an engine livelock error, or an integrity
	// violation (*audit.IntegrityError). Crashed is always true when Err is
	// non-nil; thrash aborts set Crashed with a nil Err.
	Err            error
	Accesses       uint64
	FootprintPages int
	CapacityPages  int
	UVM            uvm.Stats
	// MHPE is non-nil when the setup used MHPE.
	MHPE *evict.MHPEStats
	// HPE is non-nil when the setup used HPE.
	HPE *evict.HPEStats
	// Pattern is non-nil when the setup used the pattern prefetcher.
	Pattern *prefetch.PatternStats
	// Learned is non-nil when the setup used the learned perceptron policy.
	Learned *policy.LearnedStats
}

// Session caches simulation results across experiments.
type Session struct {
	cfg Config
	// traces memoizes each workload's generated trace: one generation (and
	// at most one fingerprint computation) per (bench, scale, warps,
	// accesses/page, seed) per session, fanned out zero-copy to every machine
	// instance.
	traces *workload.Cache
	// sweepAgg accumulates Warm's progress: one commit per clean run.
	sweepAgg stats.SweepAgg

	// machines is the free list of finished machines: collect hands each
	// run's machine back, and the next build resets one in place instead of
	// allocating a new one. It never holds more machines than once ran at
	// the same time, and keeps them for the session's lifetime.
	machinesMu sync.Mutex
	machines   []*sm.Machine

	mu    sync.Mutex
	cache map[Key]Result
}

// NewSession returns a session.
func NewSession(cfg Config) *Session {
	cfg = cfg.withDefaults()
	return &Session{
		cfg:    cfg,
		traces: workload.NewCache(),
		cache:  make(map[Key]Result),
	}
}

// Config returns the session configuration (with defaults applied).
func (s *Session) Config() Config { return s.cfg }

// capacityFor derives the GPU memory capacity in pages for a footprint and
// oversubscription percentage, chunk-aligned with a small floor.
func capacityFor(footprintPages, pct int) int {
	if pct <= 0 {
		return 0
	}
	pages := footprintPages * pct / 100
	rem := pages % memdef.ChunkPages
	if rem != 0 {
		pages -= rem
	}
	if min := 8 * memdef.ChunkPages; pages < min {
		pages = min
	}
	return pages
}

// Run returns the (cached) result for one simulation.
func (s *Session) Run(k Key) Result {
	s.mu.Lock()
	if r, ok := s.cache[k]; ok {
		s.mu.Unlock()
		return r
	}
	s.mu.Unlock()
	r := s.runOne(k)
	s.mu.Lock()
	s.cache[k] = r
	s.mu.Unlock()
	return r
}

// Warm runs all missing keys so later Run calls hit the cache. The missing
// keys fan out over the session's bounded worker pool, one runOne each, so a
// worker holds one machine at a time; runs of the same workload share its
// memoized trace. Each run caches its Result as it finishes, and each clean
// run (Err == nil) commits its totals to the sweep aggregate once.
func (s *Session) Warm(keys []Key) {
	sem := make(chan struct{}, s.cfg.Parallelism)
	var wg sync.WaitGroup
	for _, k := range s.missingKeys(keys) {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			r := s.runOne(k)
			if r.Err == nil {
				s.sweepAgg.Commit(stats.SweepDelta{
					Runs:          1,
					Cycles:        uint64(r.Cycles),
					Accesses:      r.Accesses,
					Faults:        r.UVM.FaultEvents,
					MigratedPages: r.UVM.MigratedPages,
					EvictedPages:  r.UVM.EvictedPages,
				})
			}
			s.mu.Lock()
			s.cache[k] = r
			s.mu.Unlock()
		}()
	}
	wg.Wait()
}

// missingKeys filters keys down to the deduplicated, uncached subset,
// preserving first-appearance order.
func (s *Session) missingKeys(keys []Key) []Key {
	var missing []Key
	s.mu.Lock()
	seen := map[Key]bool{}
	for _, k := range keys {
		if _, ok := s.cache[k]; !ok && !seen[k] {
			missing = append(missing, k)
			seen[k] = true
		}
	}
	s.mu.Unlock()
	return missing
}

// SweepStats returns the committed sweep-progress totals: one commit per
// clean run that Warm finished.
func (s *Session) SweepStats() stats.SweepTotals { return s.sweepAgg.Totals() }

// CachedRuns returns the number of cached simulations.
func (s *Session) CachedRuns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cache)
}

// built is one fully constructed simulation, ready to run (the same build
// recipe from the same session configuration produces an identical machine).
type built struct {
	machine   *sm.Machine
	policy    evict.Policy
	pf        prefetch.Prefetcher
	cfg       memdef.Config
	footprint int
	// trace is the run's memoized generated trace (nil for a recorded trace).
	trace *workload.Generated
}

// traceHash is the fingerprint of the run's generated trace, or 0 for a
// recorded trace. It is computed on first use: only run records read it.
func (b *built) traceHash() uint64 {
	if b.trace == nil {
		return 0
	}
	return b.trace.Fingerprint()
}

// generated returns the session's memoized trace for bench (generating it on
// first use) — one generation per workload per session, shared zero-copy by
// every machine built for it.
func (s *Session) generated(bench workload.Benchmark) *workload.Generated {
	return s.traces.Get(bench, workload.Options{
		Scale:           s.cfg.Scale,
		Warps:           s.cfg.Warps,
		AccessesPerPage: s.cfg.AccessesPerPage,
		Seed:            s.cfg.Seed,
	})
}

// build constructs the simulation for one key: memoized workload lookup,
// policy and prefetcher instantiation, and machine assembly.
func (s *Session) build(k Key) (*built, error) {
	bench, ok := workload.ByAbbr(k.Bench)
	if !ok {
		return nil, fmt.Errorf("%w: benchmark %q", ErrUnknownKey, k.Bench)
	}
	setup, err := s.ResolveSetup(k.Setup)
	if err != nil {
		return nil, err
	}
	generated := s.generated(bench)
	seed := s.cfg.Seed ^ int64(len(k.Bench)) ^ 0x5eed
	return s.assemble(setup, seed, k.OversubPct, generated.Warps, generated.FootprintPages, generated)
}

// assemble instantiates the setup's policy (seeded with seed) and prefetcher
// for a capacity of oversubPct of footprint, and binds them and the warps to
// a machine from the session's free list (see machine).
func (s *Session) assemble(setup Setup, seed int64, oversubPct int, warps [][]memdef.Access, footprint int, trace *workload.Generated) (*built, error) {
	cfg := s.cfg.Base
	cfg.MemoryPages = capacityFor(footprint, oversubPct)
	policy, err := setup.NewPolicy(cfg, seed)
	if err != nil {
		return nil, fmt.Errorf("harness: setup %q policy: %w", setup.Name, err)
	}
	pf, err := setup.NewPrefetcher(cfg)
	if err != nil {
		return nil, fmt.Errorf("harness: setup %q prefetcher: %w", setup.Name, err)
	}
	machine, err := s.machine(cfg, policy, pf, warps)
	if err != nil {
		return nil, err
	}
	machine.SetFootprint(footprint)
	machine.SetWatchdog(s.cfg.WatchdogWindow)
	return &built{
		machine:   machine,
		policy:    policy,
		pf:        pf,
		cfg:       cfg,
		footprint: footprint,
		trace:     trace,
	}, nil
}

// machine returns a machine reset for one run: the most recently released
// one from the session's free list, or a zero Machine, which Reset builds
// from scratch. Every machine of a session shares the Base shape, so a
// recycled one always fits.
func (s *Session) machine(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher, warps [][]memdef.Access) (*sm.Machine, error) {
	var m *sm.Machine
	s.machinesMu.Lock()
	if n := len(s.machines); n > 0 {
		m = s.machines[n-1]
		s.machines[n-1] = nil
		s.machines = s.machines[:n-1]
	}
	s.machinesMu.Unlock()
	if m == nil {
		m = &sm.Machine{}
	}
	if err := m.Reset(cfg, pol, pf, warps); err != nil {
		return nil, fmt.Errorf("harness: machine: %w", err)
	}
	return m, nil
}

// collect assembles the harness Result from a finished machine, then hands
// the machine back to the session's free list: collect is drive's one
// terminal step, and b must not be run again. A run that panics, parks, or
// fails to write its run record never gets here, so its machine is dropped.
func (s *Session) collect(k Key, b *built, res sm.Result) Result {
	out := Result{
		Key:            k,
		Cycles:         res.Cycles,
		Crashed:        res.Crashed,
		Err:            res.Err,
		Accesses:       res.Accesses,
		FootprintPages: b.footprint,
		CapacityPages:  b.cfg.MemoryPages,
		UVM:            b.machine.MMU.Stats(),
	}
	if m, ok := b.policy.(*evict.MHPE); ok {
		st := m.Stats()
		out.MHPE = &st
	}
	if h, ok := b.policy.(*evict.HPE); ok {
		st := h.Stats()
		out.HPE = &st
	}
	if p, ok := b.pf.(*prefetch.Pattern); ok {
		st := p.Stats()
		out.Pattern = &st
	}
	if l, ok := b.policy.(*policy.Learned); ok {
		st := l.Stats()
		out.Learned = &st
	}
	s.machinesMu.Lock()
	s.machines = append(s.machines, b.machine)
	s.machinesMu.Unlock()
	b.machine = nil
	return out
}

// runOne executes one simulation (no caching). A panic anywhere in the run —
// workload generation, machine construction, or the simulation itself — is
// recovered into Result.Err, so one broken run degrades into one failed table
// cell instead of killing the whole parallel sweep.
func (s *Session) runOne(k Key) (out Result) {
	defer recoverRunStack(k, &out)
	b, err := s.build(k)
	if err != nil {
		return Result{Key: k, Crashed: true, Err: err}
	}
	out, _ = s.drive(k, b, runOpts{})
	return out
}

// runOpts selects what drive does at pause boundaries. The zero value is a
// plain run to completion.
type runOpts struct {
	// every is the epoch length in simulated cycles (0 = run to completion
	// in one go).
	every memdef.Cycle
	// path, when set, is the run record file written at each epoch boundary.
	path string
	// stop, consulted at each epoch boundary, parks the run when it returns
	// true (nil = never).
	stop func() bool
	// progress receives each epoch boundary (nil = none).
	progress func(Progress)
}

// drive is the one run loop: every run path hands its built machine to it.
// Without an epoch the machine runs to completion. Otherwise it pauses every
// o.every cycles (at the first event boundary past each multiple) to write
// the run record to o.path if one is set, report progress, and consult the
// stop hook; parked reports a stop, with a zero Result. A run record that
// cannot be written fails the run: a run the caller asked to record is never
// silently degraded.
func (s *Session) drive(k Key, b *built, o runOpts) (out Result, parked bool) {
	if o.every == 0 {
		return s.collect(k, b, b.machine.Run(s.cfg.MaxEvents)), false
	}
	for {
		res, paused := b.machine.RunUntil(s.cfg.MaxEvents, b.machine.Eng.Now()+o.every)
		if !paused {
			return s.collect(k, b, res), false
		}
		if o.path != "" {
			if err := s.writeRecord(o.path, k, b); err != nil {
				return Result{Key: k, Crashed: true, Err: err,
					FootprintPages: b.footprint, CapacityPages: b.cfg.MemoryPages}, false
			}
		}
		if o.progress != nil {
			o.progress(Progress{Key: k, Cycle: b.machine.Eng.Now()})
		}
		if o.stop != nil && o.stop() {
			return Result{}, true
		}
	}
}

// recoverRunStack converts a panic into a crashed Result carrying ErrPanic,
// the panic value and the panicking goroutine's stack. Every run path defers
// it around its build and drive.
func recoverRunStack(k Key, out *Result) {
	if r := recover(); r != nil {
		*out = Result{
			Key:     k,
			Crashed: true,
			Err:     fmt.Errorf("%w: %v\n%s", ErrPanic, r, debug.Stack()),
		}
	}
}

// RunTrace simulates a pre-recorded trace (instead of a generated Table II
// workload) under the named setup at the given oversubscription rate. Trace
// runs are not cached: the trace's identity is not part of a Key. The policy
// is seeded with the session seed itself.
func (s *Session) RunTrace(tr *trace.Trace, setupName string, oversubPct int) (out Result) {
	k := Key{Bench: "trace", Setup: setupName, OversubPct: oversubPct}
	defer recoverRunStack(k, &out)
	setup, err := s.ResolveSetup(setupName)
	if err != nil {
		return Result{Key: k, Crashed: true, Err: err}
	}
	b, err := s.assemble(setup, s.cfg.Seed, oversubPct, tr.Warps, tr.FootprintPages, nil)
	if err != nil {
		return Result{Key: k, Crashed: true, Err: err}
	}
	out, _ = s.drive(k, b, runOpts{})
	return out
}

// Speedup returns cycles(reference)/cycles(candidate): > 1 means the
// candidate is faster. Crashed runs yield 0 (reported as 'X').
func Speedup(reference, candidate Result) float64 {
	if candidate.Crashed || reference.Crashed || candidate.Cycles == 0 {
		return 0
	}
	return float64(reference.Cycles) / float64(candidate.Cycles)
}
