// Command cppe-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	cppe-bench                     # all experiments, paper order
//	cppe-bench -exp fig8           # one experiment
//	cppe-bench -list               # list experiment ids
//	cppe-bench -scale 0.1 -exp fig3
//	GOMAXPROCS=1 cppe-bench -exp fig8 -parallel 1 -json BENCH_sweep.json   # machine-readable perf report
//	cppe-bench -exp fig8 -cpuprofile cpu.pprof     # profile the experiment runs
//
// Output is aligned text; simulation results are cached within one
// invocation, so experiments that share runs (e.g. the Fig. 9 pair) do not
// repeat them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	cppe "github.com/reproductions/cppe"
	"github.com/reproductions/cppe/internal/harness"
	"github.com/reproductions/cppe/internal/stats"
)

// expResult is one experiment's wall time in the -json report. The per-run
// fields amortize the experiment's cost over the simulations it actually
// executed (cached-run deltas): an experiment that reuses cached results
// reports zero new runs and omits them.
type expResult struct {
	ID           string  `json:"id"`
	WallMs       float64 `json:"wall_ms"`
	CachedRuns   int     `json:"cached_runs_after"`
	NewRuns      int     `json:"new_runs"`
	WallMsPerRun float64 `json:"wall_ms_per_run,omitempty"`
	AllocsPerRun uint64  `json:"allocs_per_run,omitempty"`
	BytesPerRun  uint64  `json:"bytes_per_run,omitempty"`
}

// sweepReport is the session's committed sweep-progress totals (see
// stats.SweepTotals): what Warm's runs folded into the shared aggregate, one
// commit per clean run.
type sweepReport struct {
	Runs          uint64 `json:"runs"`
	Cycles        uint64 `json:"cycles"`
	Accesses      uint64 `json:"accesses"`
	Faults        uint64 `json:"faults"`
	MigratedPages uint64 `json:"migrated_pages"`
	EvictedPages  uint64 `json:"evicted_pages"`
	Commits       uint64 `json:"commits"`
}

// jsonReport is the machine-readable output of -json: environment metadata,
// per-experiment wall times with amortized per-run cost, and the
// sweep-progress totals. Parallelism is the harness
// value actually used for the runs (after defaulting), not the flag.
type jsonReport struct {
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	NumCPU      int         `json:"num_cpu"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	Parallelism int         `json:"parallelism"`
	Scale       float64     `json:"scale"`
	Warps       int         `json:"warps"`
	Experiments []expResult `json:"experiments"`
	Sweep       sweepReport `json:"sweep"`
}

// writeCSV stores one experiment's table as <dir>/<id>.csv.
func writeCSV(t *stats.Table, dir, id string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, id+".csv"))
	if err != nil {
		return err
	}
	err = t.WriteCSV(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	var (
		exp     = flag.String("exp", "", "experiment id (empty = all); see -list")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		scale   = flag.Float64("scale", 0, "workload footprint scale (default 0.25)")
		warps   = flag.Int("warps", 0, "concurrent access streams (default 64)")
		seed    = flag.Int64("seed", 0, "workload/PRNG seed")
		par     = flag.Int("parallel", 0, "concurrent simulations (default GOMAXPROCS)")
		verbose = flag.Bool("v", false, "print per-experiment timing")
		bars    = flag.Bool("bars", false, "render figure experiments as ASCII bar charts")
		csvDir  = flag.String("csv", "", "also write each experiment as CSV into this directory")
		sysCfg  = flag.String("config", "", "JSON file overriding Table-I system parameters")
		dumpCfg = flag.Bool("dump-config", false, "print the default system configuration as JSON and exit")
		check   = flag.Bool("check", false, "run the claims self-check and exit non-zero if any claim fails")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile taken after the experiment runs to this file")
		jsonOut    = flag.String("json", "", "write a machine-readable report (per-experiment wall times and sweep totals) to this file")
	)
	flag.Parse()

	if *dumpCfg {
		fmt.Printf("%s\n", cppe.DefaultSystemJSON())
		return
	}
	if *list {
		for _, id := range cppe.Experiments() {
			fmt.Println(id)
		}
		return
	}

	opt := cppe.Options{Scale: *scale, Warps: *warps, Seed: *seed, Parallelism: *par}
	var s *cppe.Session
	if *sysCfg != "" {
		data, err := os.ReadFile(*sysCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
		s, err = cppe.NewSessionWithSystem(opt, data)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
	} else {
		s = cppe.NewSession(opt)
	}

	if *check {
		out, err := s.Experiment(cppe.ExpClaims)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
		fmt.Println(out)
		if strings.Contains(out, "FAIL") {
			fmt.Fprintln(os.Stderr, "cppe-bench: claims self-check FAILED")
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	ids := cppe.Experiments()
	if *exp != "" {
		ids = []string{*exp}
	}
	var expTimes []expResult
	for _, id := range ids {
		runsBefore := s.CachedRuns()
		var memBefore runtime.MemStats
		runtime.ReadMemStats(&memBefore)
		t0 := time.Now()
		e, ok := harness.LookupExperiment(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "cppe-bench: unknown experiment %q (see -list)\n", id)
			os.Exit(1)
		}
		if *bars && e.Bars == nil && *exp != "" {
			fmt.Fprintf(os.Stderr, "cppe-bench: %q is not a figure experiment (bars available for fig3/fig7/fig8/fig9-*/fig10/sweep-rate)\n", id)
			os.Exit(1)
		}
		// One render per experiment: text, bars and CSV all come from t. In
		// all-experiments mode, non-figure artifacts print as tables.
		t := s.Harness().Table(e)
		out := t.String()
		if *bars && e.Bars != nil {
			var err error
			if out, err = e.BarCharts(t); err != nil {
				fmt.Fprintln(os.Stderr, "cppe-bench:", err)
				os.Exit(1)
			}
		}
		fmt.Println(out)
		if *csvDir != "" {
			if err := writeCSV(t, *csvDir, id); err != nil {
				fmt.Fprintln(os.Stderr, "cppe-bench:", err)
				os.Exit(1)
			}
		}
		wallMs := float64(time.Since(t0).Microseconds()) / 1000
		er := expResult{
			ID:         id,
			WallMs:     wallMs,
			CachedRuns: s.CachedRuns(),
			NewRuns:    s.CachedRuns() - runsBefore,
		}
		if er.NewRuns > 0 {
			var memAfter runtime.MemStats
			runtime.ReadMemStats(&memAfter)
			n := uint64(er.NewRuns)
			er.WallMsPerRun = wallMs / float64(er.NewRuns)
			er.AllocsPerRun = (memAfter.Mallocs - memBefore.Mallocs) / n
			er.BytesPerRun = (memAfter.TotalAlloc - memBefore.TotalAlloc) / n
		}
		expTimes = append(expTimes, er)
		if *verbose {
			fmt.Printf("[%s: %v, %d cached simulations]\n\n", id, time.Since(t0).Round(time.Millisecond), s.CachedRuns())
		}
	}

	if *cpuprofile != "" {
		// Stop before the report so the profile covers only the experiment
		// runs (the deferred stop then becomes a no-op).
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
		f.Close()
	}
	if *jsonOut != "" {
		effScale := *scale
		if effScale == 0 {
			effScale = 0.25
		}
		effWarps := *warps
		if effWarps == 0 {
			effWarps = 64
		}
		st := s.Harness().SweepStats()
		rep := jsonReport{
			GoVersion:   runtime.Version(),
			GOOS:        runtime.GOOS,
			GOARCH:      runtime.GOARCH,
			NumCPU:      runtime.NumCPU(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			Parallelism: s.Harness().Config().Parallelism,
			Scale:       effScale,
			Warps:       effWarps,
			Experiments: expTimes,
			Sweep: sweepReport{
				Runs:          st.Runs,
				Cycles:        st.Cycles,
				Accesses:      st.Accesses,
				Faults:        st.Faults,
				MigratedPages: st.MigratedPages,
				EvictedPages:  st.EvictedPages,
				Commits:       st.Commits,
			},
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cppe-bench:", err)
			os.Exit(1)
		}
	}
}
