// Command cppe-trace generates a synthetic workload trace and prints its
// page-level statistics: footprint, touched pages, per-chunk touch density,
// and (optionally) the first accesses of each warp. It is the inspection
// tool for the Table II workload generators.
//
// Usage:
//
//	cppe-trace -bench NW
//	cppe-trace -bench BFS -scale 0.1 -dump 20
//	cppe-trace -bench MVT -o mvt.trc      # save to the binary trace format
//	cppe-trace -i mvt.trc                 # inspect a saved trace
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/trace"
	"github.com/reproductions/cppe/internal/workload"
)

func main() {
	var (
		bench = flag.String("bench", "SRD", "Table II benchmark abbreviation")
		scale = flag.Float64("scale", 0.25, "footprint scale")
		warps = flag.Int("warps", 64, "access streams")
		seed  = flag.Int64("seed", 0, "generator seed")
		dump  = flag.Int("dump", 0, "print the first N accesses of warp 0")
		all   = flag.Bool("all", false, "summarize every benchmark instead")
		out   = flag.String("o", "", "write the generated trace to this file")
		in    = flag.String("i", "", "inspect a saved trace file instead of generating")
	)
	flag.Parse()

	opt := workload.Options{Scale: *scale, Warps: *warps, Seed: *seed}

	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-trace:", err)
			os.Exit(1)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-trace:", err)
			os.Exit(1)
		}
		s := trace.Summarize(tr)
		fmt.Printf("file        %s\n", *in)
		fmt.Printf("footprint   %d pages\n", s.FootprintPages)
		fmt.Printf("warps       %d\n", len(tr.Warps))
		fmt.Printf("accesses    %d (%d reads, %d writes)\n", s.Accesses, s.Reads, s.Writes)
		fmt.Printf("touched     %d pages in %d chunks\n", s.TouchedPages, s.TouchedChunks)
		return
	}

	if *all {
		fmt.Printf("%-6s %-5s %10s %10s %10s %8s\n", "Abbr", "Type", "Footprint", "Touched", "Accesses", "Density")
		for _, b := range workload.All() {
			tr := b.Generate(opt)
			fmt.Printf("%-6s %-5s %10d %10d %10d %7.1f%%\n",
				b.Abbr, b.Type.Short(), tr.FootprintPages, tr.TouchedPages, tr.Accesses,
				100*float64(tr.TouchedPages)/float64(tr.FootprintPages))
		}
		return
	}

	b, ok := workload.ByAbbr(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "cppe-trace: unknown benchmark %q\n", *bench)
		os.Exit(1)
	}
	tr := b.Generate(opt)

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-trace:", err)
			os.Exit(1)
		}
		err = trace.Write(f, &trace.Trace{FootprintPages: tr.FootprintPages, Warps: tr.Warps})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cppe-trace:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d accesses)\n", *out, tr.Accesses)
	}

	fmt.Printf("benchmark   %s (%s, %s)\n", b.Name, b.Abbr, b.Type)
	fmt.Printf("footprint   %d pages (%d chunks, %.1f MB scaled from %.1f MB)\n",
		tr.FootprintPages, tr.FootprintPages/memdef.ChunkPages,
		float64(tr.FootprintPages)*memdef.PageBytes/(1<<20), b.FootprintMB)
	fmt.Printf("touched     %d pages (%.1f%% of footprint)\n",
		tr.TouchedPages, 100*float64(tr.TouchedPages)/float64(tr.FootprintPages))
	fmt.Printf("accesses    %d over %d warps\n", tr.Accesses, len(tr.Warps))

	// Per-chunk touch-density histogram: how many chunks have k touched
	// pages (the quantity behind the paper's untouch levels).
	touched := map[memdef.ChunkID]map[int]bool{}
	for _, w := range tr.Warps {
		for _, op := range w {
			a := op.Access()
			c := a.Addr.Chunk()
			if touched[c] == nil {
				touched[c] = map[int]bool{}
			}
			touched[c][a.Addr.Page().Index()] = true
		}
	}
	hist := make([]int, memdef.ChunkPages+1)
	for _, pages := range touched {
		hist[len(pages)]++
	}
	fmt.Println("chunk touch-density histogram (touched pages per chunk -> chunks):")
	for k, n := range hist {
		if n > 0 {
			fmt.Printf("  %2d: %d\n", k, n)
		}
	}

	if *dump > 0 && len(tr.Warps) > 0 {
		fmt.Printf("first %d accesses of warp 0:\n", *dump)
		for i, op := range tr.Warps[0] {
			if i >= *dump {
				break
			}
			a := op.Access()
			fmt.Printf("  %s %v (page %v, chunk %v)\n", a.Kind, a.Addr, a.Addr.Page(), a.Addr.Chunk())
		}
	}
}
