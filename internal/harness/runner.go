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
	"strings"
	"sync"
	"time"

	"github.com/reproductions/cppe/internal/core"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/sm"
	"github.com/reproductions/cppe/internal/snapshot"
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
	// MaxEvents bounds one simulation's event count (default 500M). A
	// checkpointed run applies the budget per checkpoint segment only.
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
	cfg    Config
	setups map[string]core.Setup
	// traces memoizes each workload's generated trace: one generation (and
	// one fingerprint computation) per (bench, scale, warps, accesses/page,
	// seed) per session, fanned out zero-copy to every machine instance.
	traces *workload.Cache
	// sweepAgg accumulates Warm's progress: one commit per clean run.
	sweepAgg stats.SweepAgg
	// ckptWriters is a free list of checkpoint buffers shared by every run of
	// the session, one per concurrent simulation (Parallelism): a warmed
	// checkpoint reuses a buffer instead of allocating its payload.
	ckptWriters chan *snapshot.Writer

	// machines is the free list of finished machines: collect hands each
	// run's machine back, and the next build resets one in place instead of
	// allocating a new one. It never holds more machines than once ran at
	// the same time, and keeps them for the session's lifetime.
	machinesMu sync.Mutex
	machines   []*sm.Machine

	mu    sync.Mutex
	cache map[Key]Result
}

// NewSession returns a session with the standard setups registered.
func NewSession(cfg Config) *Session {
	cfg = cfg.withDefaults()
	s := &Session{
		cfg:         cfg,
		setups:      make(map[string]core.Setup),
		traces:      workload.NewCache(),
		ckptWriters: make(chan *snapshot.Writer, max(cfg.Parallelism, 1)),
		cache:       make(map[Key]Result),
	}
	for _, su := range []core.Setup{
		core.SetupBaseline, core.SetupCPPE, core.SetupCPPES1,
		core.SetupRandom, core.SetupDisableOnFull, core.SetupHPE,
		core.SetupTree, core.SetupLearned,
		core.SetupReservedLRU(0.10), core.SetupReservedLRU(0.20),
		core.SetupMHPEProbe(),
	} {
		s.Register(su)
	}
	for t3 := 16; t3 <= 40; t3 += 4 {
		s.Register(core.SetupCPPET3(t3))
	}
	s.Register(core.SetupTrueLRU)
	for _, iv := range []int{32, 128} {
		s.Register(core.SetupCPPEInterval(iv))
	}
	for _, bc := range []int{8, 128} {
		s.Register(core.SetupCPPEBuffer(bc))
	}
	for _, fd := range []int{2, 8} {
		s.Register(core.SetupCPPEFwd(fd))
	}
	return s
}

// Config returns the session configuration (with defaults applied).
func (s *Session) Config() Config { return s.cfg }

// Register adds (or replaces) a setup.
func (s *Session) Register(su core.Setup) { s.setups[su.Name] = su }

// Setup returns a registered or dynamically resolvable setup.
func (s *Session) Setup(name string) (core.Setup, bool) {
	su, err := s.ResolveSetup(name)
	return su, err == nil
}

// ResolveSetup returns the setup for name. Registered names win; otherwise an
// "evict+prefetch" pair of registry names ("mhpe+locality", "learned+tree",
// ...) resolves dynamically, so every registered policy combination is
// addressable from the front-ends without a bespoke Setup definition. An
// unknown half returns policy.ErrUnknownPolicy; a name that is neither
// registered nor a pair returns ErrUnknownKey. Both are typed, so callers
// (and Result.Err consumers) can classify with errors.Is.
func (s *Session) ResolveSetup(name string) (core.Setup, error) {
	if su, ok := s.setups[name]; ok {
		return su, nil
	}
	ev, pf, ok := strings.Cut(name, "+")
	if !ok {
		return core.Setup{}, fmt.Errorf("%w: setup %q", ErrUnknownKey, name)
	}
	if _, err := policy.Lookup(policy.KindEviction, ev); err != nil {
		return core.Setup{}, fmt.Errorf("harness: setup %q: %w", name, err)
	}
	if _, err := policy.Lookup(policy.KindPrefetch, pf); err != nil {
		return core.Setup{}, fmt.Errorf("harness: setup %q: %w", name, err)
	}
	return core.FromRegistry(name,
		fmt.Sprintf("registry pair: %s eviction + %s prefetch", ev, pf), ev, pf), nil
}

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

// built is one fully constructed simulation, ready to run (or to restore a
// checkpoint into: the same build recipe from the same session configuration
// produces an identical machine).
type built struct {
	machine   *sm.Machine
	policy    evict.Policy
	pf        prefetch.Prefetcher
	cfg       memdef.Config
	footprint int
	traceHash uint64
}

// ErrTraceDrift reports that the session's memoized trace carries a
// fingerprint different from the one a checkpoint envelope pinned: the
// workload generator (or the memoized entry) drifted, so the checkpointed
// machine state cannot be restored over this trace. It is a kind of
// ErrCheckpointMismatch (errors.Is matches both).
var ErrTraceDrift = fmt.Errorf("%w: memoized trace fingerprint drift", ErrCheckpointMismatch)

// generated returns the session's memoized trace for bench (generating it on
// first use) — one generation and one fingerprint per workload per session,
// shared zero-copy by every machine built for it.
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
func (s *Session) build(k Key) (*built, error) { return s.buildChecked(k, 0) }

// buildChecked is build with an optional trace-identity pin: a non-zero
// wantTraceHash (from a checkpoint envelope) must equal the memoized trace's
// fingerprint, or the build fails with ErrTraceDrift instead of silently
// assembling a machine over a trace the checkpoint was not taken against.
func (s *Session) buildChecked(k Key, wantTraceHash uint64) (*built, error) {
	bench, ok := workload.ByAbbr(k.Bench)
	if !ok {
		return nil, fmt.Errorf("%w: benchmark %q", ErrUnknownKey, k.Bench)
	}
	setup, err := s.ResolveSetup(k.Setup)
	if err != nil {
		return nil, err
	}
	generated := s.generated(bench)
	if wantTraceHash != 0 && generated.Fingerprint != wantTraceHash {
		return nil, fmt.Errorf("%w: trace %#x, checkpoint envelope %#x for %v",
			ErrTraceDrift, generated.Fingerprint, wantTraceHash, k)
	}
	seed := s.cfg.Seed ^ int64(len(k.Bench)) ^ 0x5eed
	return s.assemble(setup, seed, k.OversubPct, generated.Warps, generated.FootprintPages, generated.Fingerprint)
}

// assemble instantiates the setup's policy (seeded with seed) and prefetcher
// for a capacity of oversubPct of footprint, and binds them and the warps to
// a machine from the session's free list (see machine).
func (s *Session) assemble(setup core.Setup, seed int64, oversubPct int, warps [][]memdef.Access, footprint int, traceHash uint64) (*built, error) {
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
		traceHash: traceHash,
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
// fails to restore or checkpoint never gets here, so its machine is dropped.
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
	// path is the checkpoint file; with every it enables checkpointing.
	path string
	// every is the checkpoint cadence in simulated cycles (0 = none).
	every memdef.Cycle
	// stop, consulted after each checkpoint, parks the run when it returns
	// true (nil = never).
	stop func() bool
	// progress receives each durable checkpoint (nil = none).
	progress func(Progress)
}

// drive is the one run loop: every run path hands its built (or restored)
// machine to it. Without checkpointing the machine runs to completion.
// Otherwise it pauses every o.every cycles (at the first event boundary past
// each multiple) to write a checkpoint to o.path, report progress, and
// consult the stop hook; parked reports a stop, with a zero Result and the
// checkpoint left on disk. A checkpoint that cannot be written fails the
// run: one the caller asked to checkpoint is never silently degraded.
func (s *Session) drive(k Key, b *built, o runOpts) (out Result, parked bool) {
	if o.path == "" || o.every == 0 {
		return s.collect(k, b, b.machine.Run(s.cfg.MaxEvents)), false
	}
	for checkpoints := 1; ; checkpoints++ {
		res, paused := b.machine.RunUntil(s.cfg.MaxEvents, b.machine.Eng.Now()+o.every)
		if !paused {
			return s.collect(k, b, res), false
		}
		if err := s.writeCheckpoint(o.path, k, b); err != nil {
			return Result{Key: k, Crashed: true, Err: err,
				FootprintPages: b.footprint, CapacityPages: b.cfg.MemoryPages}, false
		}
		if o.progress != nil {
			o.progress(Progress{Key: k, Cycle: b.machine.Eng.Now(), Checkpoints: checkpoints})
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
	b, err := s.assemble(setup, s.cfg.Seed, oversubPct, tr.Warps, tr.FootprintPages, 0)
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
