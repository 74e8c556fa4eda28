// Command cppe-sim runs a single simulation — one benchmark under one
// (eviction policy, prefetcher) setup at one oversubscription rate — and
// prints the detailed counters.
//
// Usage:
//
//	cppe-sim -bench SRD -setup cppe -rate 50
//	cppe-sim -bench NW -setup baseline -rate 75 -scale 0.1
//	cppe-sim -bench SRD -setup cppe -rate 50 -checkpoint-every 100000 -checkpoint-file srd.ckpt
//	cppe-sim -resume srd.ckpt -checkpoint-every 100000
//	cppe-sim -bench SRD -setup cppe -rate 50 -json
//	cppe-sim -list
//
// The exit status is 0 only for clean, completed simulations; crashed or
// errored runs (thrash aborts, driver failures, integrity violations) exit 1
// after printing their report.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	cppe "github.com/reproductions/cppe"
)

func main() {
	var (
		bench     = flag.String("bench", "SRD", "Table II benchmark abbreviation")
		setup     = flag.String("setup", "cppe", "system setup (see -list)")
		rate      = flag.Int("rate", 50, "oversubscription percent (75/50; 0 = unlimited memory)")
		scale     = flag.Float64("scale", 0, "workload footprint scale (default 0.25)")
		warps     = flag.Int("warps", 0, "concurrent access streams (default 64)")
		seed      = flag.Int64("seed", 0, "workload/PRNG seed")
		list      = flag.Bool("list", false, "list benchmarks and setups, then exit")
		trc       = flag.String("trace", "", "simulate a saved trace file (cppe-trace -o) instead of a benchmark")
		detail    = flag.Bool("detail", false, "print the full instrumentation report")
		auditOn   = flag.Bool("audit", false, "enable the simulation integrity auditor (read-only; results unchanged)")
		chaosSeed = flag.Int64("chaos-seed", 0, "arm deterministic fault injection with this seed (0 = off)")
		system    = flag.String("system", "", "JSON file overriding Table-I system parameters (validated before running)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "write a resumable checkpoint every N simulated cycles (0 = off)")
		ckptFile  = flag.String("checkpoint-file", "", "checkpoint file path (default <bench>_<setup>_<rate>.ckpt)")
		resume    = flag.String("resume", "", "resume from a checkpoint file (its benchmark/setup/rate override the flags)")
		jsonOut   = flag.Bool("json", false, "print the result as JSON (run errors rendered as strings)")
		timeout   = flag.Duration("timeout", 0, "no-progress watchdog: a run whose frontier cycle freezes for this long fails with a structured livelock error and exits 1 (0 = 30s default, negative = off)")
	)
	flag.Parse()

	checkpointing := *ckptEvery > 0 || *ckptFile != "" || *resume != ""
	if checkpointing {
		if *trc != "" {
			fmt.Fprintln(os.Stderr, "cppe-sim: trace runs (-trace) cannot be checkpointed")
			os.Exit(1)
		}
		if *resume == "" && *ckptEvery == 0 {
			fmt.Fprintln(os.Stderr, "cppe-sim: -checkpoint-file needs -checkpoint-every")
			os.Exit(1)
		}
	}

	if *list {
		fmt.Println("benchmarks:")
		for _, b := range cppe.Benchmarks() {
			fmt.Println(" ", b)
		}
		fmt.Println("setups:")
		for _, su := range cppe.Setups() {
			fmt.Println(" ", su)
		}
		fmt.Println("eviction policies (usable as -setup <eviction>+<prefetcher>):")
		for _, name := range cppe.EvictionPolicies() {
			fmt.Printf("  %-16s %s\n", name, cppe.PolicyDescription(cppe.KindEviction, name))
		}
		fmt.Println("prefetchers:")
		for _, name := range cppe.Prefetchers() {
			fmt.Printf("  %-16s %s\n", name, cppe.PolicyDescription(cppe.KindPrefetch, name))
		}
		return
	}

	opt := cppe.Options{
		Scale: *scale, Warps: *warps, Seed: *seed,
		Audit: *auditOn, ChaosSeed: *chaosSeed, Timeout: *timeout,
	}
	var s *cppe.Session
	if *system != "" {
		data, err := os.ReadFile(*system)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-sim:", err)
			os.Exit(1)
		}
		s, err = cppe.NewSessionWithSystem(opt, data)
		if err != nil {
			// Bad override documents fail with one line, before any simulation.
			fmt.Fprintln(os.Stderr, "cppe-sim:", err)
			os.Exit(1)
		}
	} else {
		s = cppe.NewSession(opt)
	}
	t0 := time.Now()
	var r cppe.Result
	var err error
	name := *bench
	switch {
	case *resume != "":
		r, err = s.ResumeCheckpoint(*resume, *ckptEvery)
		if err == nil {
			// The checkpoint names the simulation; reflect it in the report
			// (and in the baseline-speedup lookup below).
			*bench, *setup, *rate = r.Request.Benchmark, r.Request.Setup, r.Request.Oversubscription
			name = *bench
		}
	case *ckptEvery > 0:
		path := *ckptFile
		if path == "" {
			path = fmt.Sprintf("%s_%s_%d.ckpt", *bench, *setup, *rate)
		}
		r, err = s.RunCheckpointed(cppe.Request{Benchmark: *bench, Setup: *setup, Oversubscription: *rate}, path, *ckptEvery)
	case *trc != "":
		var f *os.File
		if f, err = os.Open(*trc); err == nil {
			r, err = s.RunTraceFrom(f, *setup, *rate)
			f.Close()
		}
		name = *trc
	default:
		r, err = s.Run(cppe.Request{Benchmark: *bench, Setup: *setup, Oversubscription: *rate})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cppe-sim:", err)
		os.Exit(1)
	}
	elapsed := time.Since(t0)

	// A crashed or errored simulation still prints its report, then exits
	// nonzero so scripts and CI can tell a clean run from a failed one.
	exitCode := 0
	if r.Crashed || r.Err != nil {
		exitCode = 1
	}

	if *jsonOut {
		// cppe.ResultJSON is the one canonical rendering: cppe-serve stores
		// and serves the same bytes, so CLI and service output stay diffable.
		enc, jerr := cppe.ResultJSON(r)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "cppe-sim:", jerr)
			os.Exit(1)
		}
		os.Stdout.Write(enc)
		os.Exit(exitCode)
	}

	if *detail && *trc == "" {
		out, derr := s.Describe(cppe.Request{Benchmark: *bench, Setup: *setup, Oversubscription: *rate})
		if derr != nil {
			fmt.Fprintln(os.Stderr, "cppe-sim:", derr)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("(simulated in %v)\n", elapsed.Round(time.Millisecond))
		os.Exit(exitCode)
	}

	fmt.Printf("benchmark        %s\n", name)
	fmt.Printf("setup            %s\n", *setup)
	fmt.Printf("oversubscription %d%%\n", *rate)
	fmt.Printf("footprint        %d pages (%d chunks)\n", r.FootprintPages, r.FootprintPages/16)
	fmt.Printf("capacity         %d pages\n", r.CapacityPages)
	fmt.Printf("cycles           %d\n", r.Cycles)
	fmt.Printf("accesses         %d\n", r.Accesses)
	fmt.Printf("fault events     %d\n", r.FaultEvents)
	fmt.Printf("migrated pages   %d\n", r.MigratedPages)
	fmt.Printf("evicted pages    %d\n", r.EvictedPages)
	fmt.Printf("crashed          %v\n", r.Crashed)
	if r.Err != nil {
		fmt.Printf("run error        %v\n", r.Err)
	}
	fmt.Printf("(simulated in %v)\n", elapsed.Round(time.Millisecond))

	// Convenience: if the setup isn't the baseline, also report the speedup
	// against the baseline at the same rate (generated benchmarks only —
	// trace files have no cached baseline to compare with).
	if *trc == "" && *setup != cppe.SetupBaseline {
		base, err := s.Run(cppe.Request{Benchmark: *bench, Setup: cppe.SetupBaseline, Oversubscription: *rate})
		if err == nil {
			if sp := cppe.Speedup(base, r); sp > 0 {
				fmt.Printf("speedup vs baseline: %.2fx\n", sp)
			} else {
				fmt.Printf("speedup vs baseline: X (a run crashed)\n")
			}
		}
	}
	os.Exit(exitCode)
}
