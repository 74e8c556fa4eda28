// Package cppe is a simulation-based reproduction of "Coordinated Page
// Prefetch and Eviction for Memory Oversubscription Management in GPUs"
// (Yu, Childers, Huang, Qian, Guo, Wang — IPDPS 2020).
//
// It bundles a discrete-event GPU memory-system simulator (SMs with
// replayable far faults, two-level TLBs, a threaded page-table walker with a
// page-walk cache, data caches, GDDR5 DRAM, a PCIe link and a UVM driver
// runtime), the eviction policies and prefetchers the paper studies (LRU,
// Random, reserved LRU, HPE, MHPE; sequential-local, tree-based,
// pattern-aware, disable-on-full), synthetic generators for the 23 Table-II
// workloads, and a harness that regenerates every table and figure of the
// evaluation.
//
// Quick start:
//
//	s := cppe.NewSession(cppe.Options{})
//	r := s.MustRun(cppe.Request{Benchmark: "SRD", Setup: cppe.SetupCPPE, Oversubscription: 50})
//	base := s.MustRun(cppe.Request{Benchmark: "SRD", Setup: cppe.SetupBaseline, Oversubscription: 50})
//	fmt.Printf("CPPE speedup on SRD: %.2fx\n", cppe.Speedup(base, r))
//
// Or regenerate a paper artifact:
//
//	text, _ := s.Experiment(cppe.ExpFig8)
//	fmt.Println(text)
package cppe

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/harness"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/stats"
	"github.com/reproductions/cppe/internal/trace"
	"github.com/reproductions/cppe/internal/workload"
)

// Canonical setup names (policy + prefetcher combinations).
const (
	// SetupBaseline is the state-of-the-art software baseline: LRU
	// pre-eviction + sequential-local (locality) prefetcher, prefetching
	// naively under oversubscription.
	SetupBaseline = "baseline"
	// SetupCPPE is the paper's system: MHPE + access pattern-aware
	// prefetcher with deletion Scheme-2.
	SetupCPPE = "cppe"
	// SetupCPPEScheme1 is CPPE with pattern-buffer deletion Scheme-1.
	SetupCPPEScheme1 = "cppe-s1"
	// SetupRandom is Random eviction + locality prefetcher.
	SetupRandom = "random"
	// SetupReservedLRU10 and SetupReservedLRU20 reserve the top 10%/20% of
	// the LRU chain.
	SetupReservedLRU10 = "lru-10%"
	SetupReservedLRU20 = "lru-20%"
	// SetupDisableOnFull stops prefetching once GPU memory fills.
	SetupDisableOnFull = "disable-on-full"
	// SetupHPE is the original hierarchical page eviction + locality
	// prefetcher (the counter-pollution ablation).
	SetupHPE = "hpe"
	// SetupTree is LRU + the tree-based neighborhood prefetcher.
	SetupTree = "tree"
	// SetupLearned is the learned perceptron eviction policy + the paper's
	// pattern-aware prefetcher (Scheme-2) — the in-tree demonstration of the
	// policy plugin registry (see RegisterPolicy).
	SetupLearned = "learned"
)

// Experiment identifiers accepted by Session.Experiment.
const (
	ExpTable1     = "table1"
	ExpTable2     = "table2"
	ExpFig3       = "fig3"
	ExpFig4       = "fig4"
	ExpTable3     = "table3"
	ExpTable4     = "table4"
	ExpSweepT3    = "sweep-t3"
	ExpFig7       = "fig7"
	ExpFig8       = "fig8"
	ExpFig9a      = "fig9-75"
	ExpFig9b      = "fig9-50"
	ExpFig10      = "fig10"
	ExpOverhead   = "overhead"
	ExpAblHPE     = "ablation-hpe"
	ExpAblTree    = "ablation-tree"
	ExpAblMHPE    = "ablation-mhpe-design"
	ExpAblTrueLRU = "ablation-true-lru"
	ExpSweepRate  = "sweep-rate"
	ExpBreakdown  = "breakdown"
	ExpClaims     = "claims"
	ExpRobustness = "robustness"
	// ExpFig8Learned benchmarks the learned eviction policy against CPPE
	// across all 23 workloads (the registry's end-to-end experiment).
	ExpFig8Learned = "fig8-learned"
)

// Options configure a Session. The zero value reproduces the paper's
// configuration at the default workload scale.
type Options struct {
	// Scale multiplies workload footprints (default 0.25). Smaller is
	// faster; comparisons are scale-relative.
	Scale float64
	// Warps is the number of concurrent access streams (default 64).
	Warps int
	// Seed perturbs workload generation and the Random policy (default 0).
	Seed int64
	// Parallelism bounds concurrent simulations (default GOMAXPROCS).
	Parallelism int
	// Audit enables the simulation integrity auditor: periodic and
	// transition-point verification of the cross-module conservation
	// invariants. Checks are read-only, so results are bit-for-bit identical
	// with auditing on or off; a violation surfaces in Result.Err.
	Audit bool
	// ChaosSeed, when non-zero, arms deterministic fault injection at the
	// interconnect/UVM boundary (delayed/reordered migration completions,
	// transient far-fault failures retried by the driver). The same seed
	// reproduces the same perturbation schedule exactly.
	ChaosSeed int64
	// Timeout arms the per-run no-progress watchdog: a run whose frontier
	// cycle stays frozen for this much wall-clock time fails with a
	// structured engine livelock error instead of hanging forever. Zero
	// keeps the default (30s); negative disables the watchdog. The watchdog
	// only reads the wall clock between events, so results are unchanged for
	// runs that make progress.
	Timeout time.Duration
}

// baseConfig derives the Table-I configuration with the Options' integrity
// knobs applied.
func baseConfig(opt Options) memdef.Config {
	cfg := memdef.DefaultConfig()
	if opt.Audit {
		cfg.AuditEveryCycles = audit.DefaultEveryCycles
	}
	cfg.ChaosSeed = opt.ChaosSeed
	return cfg
}

// Request identifies one simulation.
type Request struct {
	// Benchmark is a Table II abbreviation ("SRD", "NW", ...).
	Benchmark string
	// Setup is one of the Setup* constants.
	Setup string
	// Oversubscription is the percentage of the footprint that fits in GPU
	// memory (75 or 50 in the paper; 0 = unlimited memory).
	Oversubscription int
}

// Result summarizes one simulation.
type Result struct {
	Request Request
	// Cycles is the modeled execution time in 1.4 GHz core cycles.
	Cycles uint64
	// Crashed reports a thrash-detector abort (the modeled analogue of the
	// paper's baseline crashes for MVT/BICG) or a run failure (see Err).
	Crashed bool
	// Err is the structured failure of the run, if any: a typed driver
	// error, an engine livelock error, an integrity violation, or a
	// recovered panic. Nil for clean runs and plain thrash aborts.
	Err error
	// Accesses is the number of completed memory accesses.
	Accesses uint64
	// FaultEvents is the number of distinct far-fault service events.
	FaultEvents uint64
	// MigratedPages and EvictedPages count page traffic over the link.
	MigratedPages uint64
	EvictedPages  uint64
	// FootprintPages and CapacityPages describe the memory geometry.
	FootprintPages int
	CapacityPages  int
}

// Session caches simulation results so figures that share runs do not repeat
// them. Sessions are safe for concurrent use.
type Session struct {
	h *harness.Session
}

// NewSession creates a session with the paper's Table-I system configuration.
func NewSession(opt Options) *Session {
	return &Session{h: harness.NewSession(harness.Config{
		Base:           baseConfig(opt),
		Scale:          opt.Scale,
		Warps:          opt.Warps,
		Seed:           opt.Seed,
		Parallelism:    opt.Parallelism,
		WatchdogWindow: opt.Timeout,
	})}
}

// NewSessionWithSystem creates a session whose Table-I parameters are
// overridden by a JSON document (absent fields keep their defaults; see
// DefaultSystemJSON for the template). For example, to double the
// interconnect bandwidth: {"PCIeGBs": 32}.
func NewSessionWithSystem(opt Options, systemJSON []byte) (*Session, error) {
	cfg, err := memdef.ConfigFromJSON(systemJSON)
	if err != nil {
		return nil, err
	}
	if opt.Audit && cfg.AuditEveryCycles == 0 {
		cfg.AuditEveryCycles = audit.DefaultEveryCycles
	}
	if opt.ChaosSeed != 0 {
		cfg.ChaosSeed = opt.ChaosSeed
	}
	// Reject a structurally broken configuration here, with a one-line error,
	// instead of letting machine construction panic mid-sweep.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{h: harness.NewSession(harness.Config{
		Base:           cfg,
		Scale:          opt.Scale,
		Warps:          opt.Warps,
		Seed:           opt.Seed,
		Parallelism:    opt.Parallelism,
		WatchdogWindow: opt.Timeout,
	})}, nil
}

// DefaultSystemJSON returns the Table-I configuration as indented JSON, the
// template for NewSessionWithSystem override files.
func DefaultSystemJSON() []byte {
	data, err := memdef.ConfigJSON(memdef.DefaultConfig())
	if err != nil {
		panic(err) // the default config is always serializable
	}
	return data
}

// Benchmarks returns the Table II benchmark abbreviations in paper order.
func Benchmarks() []string { return workload.Abbrs() }

// Setups returns the named setups: the paper's systems first, then the
// sweep and ablation variants. Beyond these, any registered
// "<eviction>+<prefetcher>" pair (see RegisterPolicy, EvictionPolicies,
// Prefetchers) is a valid Request.Setup, resolved dynamically.
func Setups() []string { return harness.SetupNames() }

// Experiments returns the experiment identifiers in paper order.
func Experiments() []string {
	ids := make([]string, len(harness.Experiments))
	for i, e := range harness.Experiments {
		ids[i] = e.ID
	}
	return ids
}

// Run executes (or fetches from cache) one simulation.
func (s *Session) Run(req Request) (Result, error) {
	if err := s.validate(req); err != nil {
		return Result{}, err
	}
	r := s.h.Run(harness.Key{Bench: req.Benchmark, Setup: req.Setup, OversubPct: req.Oversubscription})
	return fromHarness(req, r), nil
}

// RunCheckpointed executes one simulation like Run, additionally writing a
// resumable checkpoint to path roughly every everyCycles cycles of simulated
// time. A process killed mid-run can continue from the last checkpoint with
// ResumeCheckpoint, or by calling RunCheckpointed again: a valid checkpoint
// of the same simulation already at path is continued, with the same result,
// and any other file there is removed. A checkpoint records the run, not the
// machine state: resuming replays the simulation to the checkpointed cycle,
// so fault injection (ChaosSeed) and registered custom policies checkpoint
// like any other run.
func (s *Session) RunCheckpointed(req Request, path string, everyCycles uint64) (Result, error) {
	if err := s.validate(req); err != nil {
		return Result{}, err
	}
	k := harness.Key{Bench: req.Benchmark, Setup: req.Setup, OversubPct: req.Oversubscription}
	return fromHarness(req, s.h.RunCheckpointed(k, path, memdef.Cycle(everyCycles))), nil
}

// ResumeCheckpoint continues a simulation from a checkpoint file written by
// RunCheckpointed (the file names its own benchmark, setup, and rate) and runs
// it to completion, still checkpointing to the same path every everyCycles
// cycles. Corrupt, truncated, other-version or mismatched checkpoints return
// an error; they are never silently resumed.
func (s *Session) ResumeCheckpoint(path string, everyCycles uint64) (Result, error) {
	r, err := s.h.Resume(path, memdef.Cycle(everyCycles))
	if err != nil {
		return Result{}, err
	}
	req := Request{Benchmark: r.Key.Bench, Setup: r.Key.Setup, Oversubscription: r.Key.OversubPct}
	return fromHarness(req, r), nil
}

// MustRun is Run for known-good requests; it panics on a bad request.
func (s *Session) MustRun(req Request) Result {
	r, err := s.Run(req)
	if err != nil {
		panic(err)
	}
	return r
}

func fromHarness(req Request, r harness.Result) Result {
	return Result{
		Request:        req,
		Cycles:         uint64(r.Cycles),
		Crashed:        r.Crashed,
		Err:            r.Err,
		Accesses:       r.Accesses,
		FaultEvents:    r.UVM.FaultEvents,
		MigratedPages:  r.UVM.MigratedPages,
		EvictedPages:   r.UVM.EvictedPages,
		FootprintPages: r.FootprintPages,
		CapacityPages:  r.CapacityPages,
	}
}

// Speedup returns cycles(reference)/cycles(candidate); 0 when either run
// crashed (rendered as 'X' in the paper's figures).
func Speedup(reference, candidate Result) float64 {
	if reference.Crashed || candidate.Crashed || candidate.Cycles == 0 {
		return 0
	}
	return float64(reference.Cycles) / float64(candidate.Cycles)
}

// table warms the simulations e reads in one worker pool, then renders e
// from the session's cached results.
func (s *Session) table(e harness.Experiment) *stats.Table {
	cfg := s.h.Config()
	if e.Keys != nil {
		s.h.Warm(e.Keys(cfg))
	}
	return e.Render(s.h.Run, cfg)
}

// lookup returns the experiment named id, or an error listing the known ids.
func lookup(id string) (harness.Experiment, error) {
	e, ok := harness.LookupExperiment(id)
	if !ok {
		known := Experiments()
		sort.Strings(known)
		return e, fmt.Errorf("cppe: unknown experiment %q (known: %v)", id, known)
	}
	return e, nil
}

// Experiment regenerates one paper artifact as an aligned text table.
func (s *Session) Experiment(id string) (string, error) {
	e, err := lookup(id)
	if err != nil {
		return "", err
	}
	return s.table(e).String(), nil
}

// ExperimentCSV writes one paper artifact as CSV (header + data rows), for
// downstream plotting.
func (s *Session) ExperimentCSV(id string, w io.Writer) error {
	e, err := lookup(id)
	if err != nil {
		return err
	}
	return s.table(e).WriteCSV(w)
}

// Describe runs (or fetches) one simulation and renders its complete
// instrumentation — translation-path breakdown, migration traffic, and the
// policy's internal trajectory — as a multi-section text report.
func (s *Session) Describe(req Request) (string, error) {
	if _, err := s.Run(req); err != nil {
		return "", err
	}
	return s.h.Describe(harness.Key{
		Bench: req.Benchmark, Setup: req.Setup, OversubPct: req.Oversubscription,
	}), nil
}

// RunTraceFrom reads a serialized access trace (the binary format written by
// `cppe-trace -o`) and simulates it under the given setup at the given
// oversubscription rate. Unlike Run, trace runs are not cached.
func (s *Session) RunTraceFrom(r io.Reader, setup string, oversubscription int) (Result, error) {
	if _, err := s.h.ResolveSetup(setup); err != nil {
		return Result{}, fmt.Errorf("cppe: %w (see Setups, EvictionPolicies, Prefetchers)", err)
	}
	if oversubscription < 0 || oversubscription > 100 {
		return Result{}, fmt.Errorf("cppe: oversubscription %d%% out of [0,100]", oversubscription)
	}
	tr, err := trace.Read(r)
	if err != nil {
		return Result{}, fmt.Errorf("cppe: %w", err)
	}
	res := s.h.RunTrace(tr, setup, oversubscription)
	return fromHarness(Request{Benchmark: "trace", Setup: setup, Oversubscription: oversubscription}, res), nil
}

// ExperimentBars renders a figure-type experiment as horizontal ASCII bar
// charts, one chart per data series — the textual analogue of the paper's bar
// figures. Table-type experiments return an error; use Experiment instead.
func (s *Session) ExperimentBars(id string) (string, error) {
	e, ok := harness.LookupExperiment(id)
	if !ok || e.Bars == nil {
		return "", fmt.Errorf("cppe: %q is not a figure experiment (bars available for fig3/fig7/fig8/fig9-*/fig10/sweep-rate)", id)
	}
	t := s.table(e)
	var b strings.Builder
	for _, c := range e.Bars {
		bars, err := stats.BarsFromTable(t, 0, c, 40)
		if err != nil {
			return "", err
		}
		b.WriteString(bars)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// CachedRuns reports how many simulations the session has executed.
func (s *Session) CachedRuns() int { return s.h.CachedRuns() }

// Harness exposes the underlying experiment session for advanced use by the
// repository's own commands; external users should prefer the stable API.
func (s *Session) Harness() *harness.Session { return s.h }
