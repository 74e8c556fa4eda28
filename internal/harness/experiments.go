package harness

import (
	"fmt"
	"strings"

	"github.com/reproductions/cppe/internal/stats"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/workload"
)

// Experiment is one paper artifact: the grid of simulations it reads and the
// table it renders from their results. A session warms Keys in one Warm
// call, then renders with get = Session.Run, so every read is a cache hit.
type Experiment struct {
	ID string
	// Keys lists every simulation Render reads through get; nil when it
	// reads none.
	Keys func(cfg Config) []Key
	// Render builds the table, fetching each simulation with get.
	Render func(get func(Key) Result, cfg Config) *stats.Table
	// Bars are the data columns plotted as bar charts; nil for an artifact
	// that is a table rather than a figure.
	Bars []int
}

// Experiments is the evaluation, one row per artifact, in paper order.
var Experiments = []Experiment{
	{ID: "table1", Render: tableI},
	{ID: "table2", Render: tableII},
	{ID: "fig3", Keys: fig3.keys, Render: fig3.render, Bars: []int{1, 2, 3}},
	{ID: "fig4", Keys: fig4Keys, Render: fig4},
	{ID: "table3", Keys: probeKeys, Render: tableIII},
	{ID: "table4", Keys: probeKeys, Render: tableIV},
	{ID: "sweep-t3", Keys: sweepT3.keys, Render: sweepT3.render},
	{ID: "fig7", Keys: fig7.keys, Render: fig7.render, Bars: []int{1, 2}},
	{ID: "fig8", Keys: fig8.keys, Render: fig8.render, Bars: []int{2, 3}},
	{ID: "fig9-75", Keys: fig9(75).keys, Render: fig9(75).render, Bars: []int{2, 3, 4, 5}},
	{ID: "fig9-50", Keys: fig9(50).keys, Render: fig9(50).render, Bars: []int{2, 3, 4, 5}},
	{ID: "fig10", Keys: fig10.keys, Render: fig10.render, Bars: []int{1, 2, 3, 4}},
	{ID: "overhead", Keys: overheadKeys, Render: overhead},
	{ID: "ablation-hpe", Keys: ablationHPEKeys, Render: ablationHPE},
	{ID: "ablation-tree", Keys: ablationTreeKeys, Render: ablationTree},
	{ID: "ablation-mhpe-design", Keys: ablationMHPE.keys, Render: ablationMHPE.render},
	{ID: "ablation-true-lru", Keys: ablationTrueLRU.keys, Render: ablationTrueLRU.render},
	{ID: "sweep-rate", Keys: sweepRate.keys, Render: sweepRate.render, Bars: []int{1, 2, 3, 4, 5}},
	{ID: "breakdown", Keys: headlineKeys, Render: breakdown},
	{ID: "robustness", Keys: headlineKeys, Render: robustness},
	{ID: "claims", Keys: claimKeys, Render: claimsTable},
	{ID: "fig8-learned", Keys: fig8Learned.keys, Render: fig8Learned.render},
}

// LookupExperiment returns the experiment with the given id.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Table warms the simulations e reads in one worker pool, then renders e
// from the session's cached results. Every output form of an experiment —
// text, bar charts, CSV — is written from the one table this returns.
func (s *Session) Table(e Experiment) *stats.Table {
	if e.Keys != nil {
		s.Warm(e.Keys(s.cfg))
	}
	return e.Render(s.Run, s.cfg)
}

// BarCharts renders t, e's table, as one horizontal ASCII bar chart per
// column in e.Bars, each followed by a blank line.
func (e Experiment) BarCharts(t *stats.Table) (string, error) {
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

// Rates are the paper's two oversubscription settings.
var Rates = []int{75, 50}

// fig3Benches are the applications of Fig. 3: four thrashing-pattern
// applications and two irregular (region-moving) ones.
var fig3Benches = []string{"SRD", "HSD", "MRQ", "STN", "B+T", "HYB"}

// fig10Benches mix regular applications (which disabling prefetch hurts) and
// the severely thrashing ones (which it helps) — Fig. 10.
var fig10Benches = []string{"HOT", "2DC", "SRD", "HSD", "MRQ", "STN", "SAD", "NW", "MVT", "BIC", "HIS", "SPV"}

// representatives are one application per access pattern type, the rows of
// the extension experiments.
var representatives = []string{"2DC", "KMN", "NW", "SRD", "HIS", "B+T"}

// cell renders a speedup, using "X" for runs involving a crash.
func cell(v float64) string {
	if v == 0 {
		return "X"
	}
	return fmt.Sprintf("%.2f", v)
}

// keysFor lists each bench's run under each setup at each rate.
func keysFor(benches []string, pcts []int, setups ...string) []Key {
	var keys []Key
	for _, b := range benches {
		for _, pct := range pcts {
			for _, su := range setups {
				keys = append(keys, Key{b, su, pct})
			}
		}
	}
	return keys
}

// col is one speedup column of a grid: the setup run at pct, labelled.
type col struct {
	label string
	setup string
	pct   int
}

// grid is a speedup table: one row per application and one column per
// (setup, rate) cell, each the speedup of that run over the reference
// setup's run at the same rate.
type grid struct {
	title, caption string
	// benches are the rows; nil means every Table II application, with a
	// pattern type column after the name.
	benches []string
	ref     string
	cols    []col
	// geoMean and max append a row aggregating each column.
	geoMean, max bool
}

func (g grid) rows() []string {
	if g.benches == nil {
		return workload.Abbrs()
	}
	return g.benches
}

func (g grid) keys(Config) []Key {
	var keys []Key
	for _, b := range g.rows() {
		for _, c := range g.cols {
			keys = append(keys, Key{b, g.ref, c.pct}, Key{b, c.setup, c.pct})
		}
	}
	return keys
}

func (g grid) render(get func(Key) Result, _ Config) *stats.Table {
	typed := g.benches == nil
	head := []string{"App"}
	if typed {
		head = append(head, "Type")
	}
	for _, c := range g.cols {
		head = append(head, c.label)
	}
	t := stats.NewTable(g.title, head...)
	t.Caption = g.caption
	perCol := make([][]float64, len(g.cols))
	for _, b := range g.rows() {
		row := []string{b}
		if typed {
			bench, _ := workload.ByAbbr(b)
			row = append(row, bench.Type.Short())
		}
		for i, c := range g.cols {
			sp := Speedup(get(Key{b, g.ref, c.pct}), get(Key{b, c.setup, c.pct}))
			perCol[i] = append(perCol[i], sp)
			row = append(row, cell(sp))
		}
		t.AddRow(row...)
	}
	summary := func(label string, f func([]float64) float64) {
		row := []string{label}
		if typed {
			row = append(row, "")
		}
		for _, xs := range perCol {
			row = append(row, cell(f(xs)))
		}
		t.AddRow(row...)
	}
	if g.geoMean {
		summary("GeoMean", stats.GeoMean)
	}
	if g.max {
		summary("Max", stats.Max)
	}
	return t
}

// fig3 compares LRU against Random and reserved LRU at 50% oversubscription
// with the locality prefetcher (speedup normalized to LRU).
var fig3 = grid{
	title:   "Fig. 3: LRU vs Random and reserved LRU (50% oversubscription)",
	caption: "speedup over LRU with locality prefetch + pre-eviction",
	benches: fig3Benches,
	ref:     "baseline",
	cols:    []col{{"Random", "random", 50}, {"LRU-10%", "lru-10%", 50}, {"LRU-20%", "lru-20%", 50}},
	geoMean: true,
}

// sweepT3 evaluates forward-distance limits 16..40 (stride 4) on the
// applications that keep adjusting at runtime (Section VI-A).
var sweepT3 = grid{
	title:   "Sensitivity: forward distance limit T3 (50% oversubscription)",
	caption: "speedup over baseline; paper selects T3=32",
	benches: []string{"SRD", "HSD", "MRQ"},
	ref:     "baseline",
	cols:    t3Cols(),
	geoMean: true,
}

func t3Cols() []col {
	var cols []col
	for t3 := 16; t3 <= 40; t3 += 4 {
		cols = append(cols, col{fmt.Sprintf("T3=%d", t3), fmt.Sprintf("cppe-t3-%d", t3), 50})
	}
	return cols
}

// fig7 compares the two pattern-buffer deletion schemes (Scheme-2 relative
// to Scheme-1) at both oversubscription rates, on the applications whose
// pattern buffer is exercised.
var fig7 = grid{
	title:   "Fig. 7: Pattern deletion scheme comparison",
	caption: "speedup of Scheme-2 over Scheme-1",
	benches: []string{"MVT", "SPV", "B+T", "BIC", "SAD", "BFS", "NW", "HWL", "HIS"},
	ref:     "cppe-s1",
	cols:    []col{{"Scheme-2/Scheme-1 @75%", "cppe", 75}, {"Scheme-2/Scheme-1 @50%", "cppe", 50}},
	geoMean: true,
}

// fig8 is the headline result: CPPE speedup over the baseline at 75% and 50%
// oversubscription for every application.
var fig8 = grid{
	title:   "Fig. 8: Performance of CPPE normalized to baseline",
	caption: "X marks runs where the baseline thrash-crashed (paper: MVT, BIC)",
	ref:     "baseline",
	cols:    []col{{"Speedup @75%", "cppe", 75}, {"Speedup @50%", "cppe", 50}},
	geoMean: true,
	max:     true,
}

// fig8Learned benchmarks the learned perceptron eviction policy against the
// paper's systems. It is the registry's end-to-end experiment: the learned
// policy reaches the sweep only through its registered name.
var fig8Learned = grid{
	title:   "Fig. 8 (learned): perceptron eviction vs CPPE, normalized to baseline",
	caption: "X marks runs where the baseline thrash-crashed",
	ref:     "baseline",
	cols: []col{
		{"Learned @75%", "learned", 75}, {"CPPE @75%", "cppe", 75},
		{"Learned @50%", "learned", 50}, {"CPPE @50%", "cppe", 50},
	},
	geoMean: true,
}

// fig9 compares Random, reserved LRU and CPPE (all normalized to the
// baseline) at the given oversubscription rate.
func fig9(pct int) grid {
	return grid{
		title:   fmt.Sprintf("Fig. 9: Prior eviction policies vs CPPE (%d%% oversubscription)", pct),
		caption: "speedup over baseline (LRU + locality prefetch)",
		ref:     "baseline",
		cols: []col{
			{"Random", "random", pct}, {"LRU-10%", "lru-10%", pct},
			{"LRU-20%", "lru-20%", pct}, {"CPPE", "cppe", pct},
		},
		geoMean: true,
	}
}

// fig10 compares disabling prefetch under oversubscription against the
// baseline and CPPE, normalized to the disable-prefetch configuration.
var fig10 = grid{
	title:   "Fig. 10: Performance when disabling prefetch under oversubscription",
	caption: "speedup normalized to LRU + disable-prefetch-when-full; X = baseline crash",
	benches: fig10Benches,
	ref:     "disable-on-full",
	cols: []col{
		{"Baseline @75%", "baseline", 75}, {"CPPE @75%", "cppe", 75},
		{"Baseline @50%", "baseline", 50}, {"CPPE @50%", "cppe", 50},
	},
}

// ablationMHPE sweeps the design choices DESIGN.md calls out: interval
// length (paper: 64 pages), wrong-eviction buffer sizing (paper: scaled,
// max(8, 8*chainLen/64)) and initial forward distance (paper: chainLen/100
// clamped to [2,8]), each against the paper's defaults.
var ablationMHPE = grid{
	title:   "Ablation: MHPE design choices (50% oversubscription)",
	caption: "speedup over baseline; CPPE column uses the paper's rules (interval 64, scaled buffer, chainLen/100 init)",
	benches: []string{"SRD", "HSD", "NW", "HIS", "B+T"},
	ref:     "baseline",
	cols: []col{
		{"CPPE", "cppe", 50}, {"int=32", "cppe-int-32", 50}, {"int=128", "cppe-int-128", 50},
		{"buf=8", "cppe-buf-8", 50}, {"buf=128", "cppe-buf-128", 50},
		{"fwd=2", "cppe-fwd-2", 50}, {"fwd=8", "cppe-fwd-8", 50},
	},
	geoMean: true,
}

// ablationTrueLRU compares the deployable policies against an oracle LRU
// that sees actual GPU-side touch recency, quantifying the driver-visibility
// handicap MHPE works around.
var ablationTrueLRU = grid{
	title:   "Ablation: oracle touch-recency LRU vs deployable policies (50% oversubscription)",
	caption: "speedup over baseline; TrueLRU uses GPU-side reference information a real driver lacks",
	benches: representatives,
	ref:     "baseline",
	cols:    []col{{"TrueLRU (oracle)", "true-lru", 50}, {"CPPE (deployable)", "cppe", 50}},
	geoMean: true,
}

// sweepRate generalizes Fig. 8 beyond the paper's two oversubscription
// points: CPPE's speedup over the baseline as GPU memory shrinks from 90% to
// 40% of the footprint.
var sweepRate = grid{
	title:   "Extension: CPPE speedup across oversubscription rates",
	caption: "speedup over baseline; one representative application per pattern type",
	benches: representatives,
	ref:     "baseline",
	cols: []col{
		{"90%", "cppe", 90}, {"75%", "cppe", 75}, {"60%", "cppe", 60},
		{"50%", "cppe", 50}, {"40%", "cppe", 40},
	},
	geoMean: true,
}

// tableI renders the simulated system configuration.
func tableI(_ func(Key) Result, cfg Config) *stats.Table {
	c := cfg.Base
	t := stats.NewTable("Table I: Configuration of simulated system", "Component", "Configuration")
	t.AddRow("GPU Cores", fmt.Sprintf("%d SMs, %.1fGHz", c.NumSMs, float64(c.CoreClockHz)/1e9))
	t.AddRow("Private L1 cache", fmt.Sprintf("%dKB, %d-way associative, LRU", c.L1CacheBytes>>10, c.L1CacheWays))
	t.AddRow("Private L1 TLB", fmt.Sprintf("%d-entry per SM, %d-cycle latency, LRU", c.L1TLBEntries, c.L1TLBLatency))
	t.AddRow("Shared L2 cache", fmt.Sprintf("%dMB total, %d-way associative, LRU", c.L2CacheBytes>>20, c.L2CacheWays))
	t.AddRow("Shared L2 TLB", fmt.Sprintf("%d-entry, %d-associative, %d-cycle latency, %d ports", c.L2TLBEntries, c.L2TLBWays, c.L2TLBLatency, c.L2TLBPorts))
	t.AddRow("Page Table Walker", fmt.Sprintf("%d concurrent walks, %d-level page table", c.PTWConcurrentWalks, c.PTWLevels))
	t.AddRow("Page Walk Cache", fmt.Sprintf("%d-way %dKB, %d-cycle latency", c.PWCWays, c.PWCBytes>>10, c.PWCLatency))
	t.AddRow("DRAM", fmt.Sprintf("GDDR5, %d-channel, %.0fGB/s aggregate", c.DRAMChannels, c.DRAMChannelGBs*float64(c.DRAMChannels)))
	t.AddRow("CPU-GPU interconnect", fmt.Sprintf("%.0fGB/s, %v page fault service time", c.PCIeGBs, c.FaultServiceTime))
	return t
}

// tableII renders the workload characteristics at the session's scale.
func tableII(_ func(Key) Result, cfg Config) *stats.Table {
	t := stats.NewTable("Table II: Workload Characteristics",
		"Workload", "Abbr.", "Footprint", "Scaled pages", "Suite", "Access pattern type")
	t.Caption = fmt.Sprintf("footprints scaled x%.3g for simulation", cfg.Scale)
	for _, r := range workload.TableII(cfg.Scale) {
		t.AddRow(r.Name, r.Abbr, fmt.Sprintf("%.1fMB", r.FootprintMB),
			fmt.Sprintf("%d", r.ScaledPages), r.Suite, r.Type.String())
	}
	return t
}

func fig4Keys(Config) []Key {
	return keysFor(workload.Abbrs(), []int{50}, "baseline", "disable-on-full")
}

// fig4 quantifies thrashing from prefetching under oversubscription: page
// evictions with always-on prefetch normalized to prefetch-off-when-full,
// at 50% oversubscription. The paper plots only applications above 1.2.
func fig4(get func(Key) Result, _ Config) *stats.Table {
	t := stats.NewTable("Fig. 4: Sensitivity to prefetching once memory is full (50% oversubscription)",
		"App", "Evictions(prefetch)", "Evictions(no-prefetch-when-full)", "Normalized", ">1.2")
	t.Caption = "page evictions with always-on prefetch, normalized to disabling prefetch when full"
	for _, b := range workload.Abbrs() {
		on := get(Key{b, "baseline", 50})
		off := get(Key{b, "disable-on-full", 50})
		ratio := 0.0
		if off.UVM.EvictedPages > 0 {
			ratio = float64(on.UVM.EvictedPages) / float64(off.UVM.EvictedPages)
		}
		mark := ""
		if ratio > 1.2 {
			mark = "*"
		}
		t.AddRow(b, fmt.Sprintf("%d", on.UVM.EvictedPages),
			fmt.Sprintf("%d", off.UVM.EvictedPages), fmt.Sprintf("%.2f", ratio), mark)
	}
	return t
}

// probeKeys are the MHPE probe runs of Tables III and IV.
func probeKeys(Config) []Key { return keysFor(workload.Abbrs(), Rates, "mhpe-probe") }

// untouchFirstFour returns (max, total) of the per-interval untouch levels in
// the first four intervals of an MHPE probe run.
func untouchFirstFour(r Result) (maxv, total int) {
	if r.MHPE == nil {
		return 0, 0
	}
	iu := r.MHPE.IntervalUntouch
	if len(iu) > 4 {
		iu = iu[:4]
	}
	for _, u := range iu {
		total += u
		if u > maxv {
			maxv = u
		}
	}
	return maxv, total
}

// tableIII reports the maximum per-interval untouch level in the first four
// intervals under the MHPE probe (MRU frozen, initial forward distance).
func tableIII(get func(Key) Result, _ Config) *stats.Table {
	t := stats.NewTable("Table III: Maximum untouch level in first four intervals",
		"App", "75%", "50%")
	t.Caption = "MHPE probe mode: MRU, initial forward distance; apps with 0 at both rates omitted"
	for _, b := range workload.Abbrs() {
		m75, _ := untouchFirstFour(get(Key{b, "mhpe-probe", 75}))
		m50, _ := untouchFirstFour(get(Key{b, "mhpe-probe", 50}))
		if m75 == 0 && m50 == 0 {
			continue
		}
		t.AddRow(b, fmt.Sprintf("%d", m75), fmt.Sprintf("%d", m50))
	}
	return t
}

// tableIV reports the total untouch level over the first four intervals for
// the applications whose maximum stayed below T1.
func tableIV(get func(Key) Result, cfg Config) *stats.Table {
	t1 := cfg.Base.T1
	t := stats.NewTable("Table IV: Total untouch level in the first four intervals",
		"App", "75%", "50%")
	t.Caption = fmt.Sprintf("apps whose Table III maximum stayed below T1=%d at the given rate ('/' otherwise)", t1)
	for _, b := range workload.Abbrs() {
		m75, t75 := untouchFirstFour(get(Key{b, "mhpe-probe", 75}))
		m50, t50 := untouchFirstFour(get(Key{b, "mhpe-probe", 50}))
		if (m75 == 0 || m75 >= t1) && (m50 == 0 || m50 >= t1) {
			continue
		}
		c75, c50 := "/", "/"
		if m75 > 0 && m75 < t1 {
			c75 = fmt.Sprintf("%d", t75)
		}
		if m50 > 0 && m50 < t1 {
			c50 = fmt.Sprintf("%d", t50)
		}
		t.AddRow(b, c75, c50)
	}
	return t
}

func overheadKeys(Config) []Key { return keysFor(workload.Abbrs(), Rates, "cppe") }

// overhead reproduces the Section VI-C storage accounting: average entry
// counts of CPPE's three structures across the benchmarks.
func overhead(get func(Key) Result, _ Config) *stats.Table {
	t := stats.NewTable("Section VI-C: CPPE structure overhead",
		"Rate", "Avg chain entries", "Avg pattern entries", "Avg wrong-evict entries", "Avg total", "Avg KB", "Pattern/chain %")
	for _, pct := range Rates {
		var chain, pattern, wrong, ratio []float64
		for _, b := range workload.Abbrs() {
			r := get(Key{b, "cppe", pct})
			cl := 0
			if r.MHPE != nil {
				cl = r.MHPE.ChainLenAtFull
				wrong = append(wrong, float64(r.MHPE.BufferCap))
			}
			chain = append(chain, float64(cl))
			if r.Pattern != nil {
				pattern = append(pattern, float64(r.Pattern.PeakLen))
				if cl > 0 && r.Pattern.PeakLen > 0 {
					ratio = append(ratio, float64(r.Pattern.PeakLen)/float64(cl)*100)
				}
			}
		}
		total := stats.Mean(chain) + stats.Mean(pattern) + stats.Mean(wrong)
		t.AddRow(fmt.Sprintf("%d%%", pct),
			fmt.Sprintf("%.0f", stats.Mean(chain)),
			fmt.Sprintf("%.0f", stats.Mean(pattern)),
			fmt.Sprintf("%.0f", stats.Mean(wrong)),
			fmt.Sprintf("%.0f", total),
			fmt.Sprintf("%.1f", total*12/1024),
			fmt.Sprintf("%.1f", stats.Mean(ratio)))
	}
	return t
}

var ablationHPEBenches = []string{"SRD", "HSD", "MRQ", "STN", "NW", "B+T"}

func ablationHPEKeys(Config) []Key {
	return keysFor(ablationHPEBenches, []int{50}, "baseline", "hpe", "cppe")
}

// ablationHPE contrasts original HPE (counter-polluted by prefetching) with
// MHPE/CPPE, demonstrating Inefficiency 1.
func ablationHPE(get func(Key) Result, _ Config) *stats.Table {
	t := stats.NewTable("Ablation: HPE with prefetching vs CPPE (50% oversubscription)",
		"App", "HPE+locality", "CPPE", "HPE class")
	t.Caption = "speedup over baseline; HPE's counters are polluted by prefetched pages"
	for _, b := range ablationHPEBenches {
		ref := get(Key{b, "baseline", 50})
		hr := get(Key{b, "hpe", 50})
		class := ""
		if hr.HPE != nil {
			class = hr.HPE.Class.String()
		}
		t.AddRow(b, cell(Speedup(ref, hr)), cell(Speedup(ref, get(Key{b, "cppe", 50}))), class)
	}
	return t
}

var ablationTreeBenches = []string{"HOT", "2DC", "BKP", "PAT", "SRD", "NW"}

func ablationTreeKeys(Config) []Key {
	return keysFor(ablationTreeBenches, []int{50}, "baseline", "tree")
}

// ablationTree contrasts the tree-based neighborhood prefetcher with the
// locality prefetcher (both under LRU) on regular applications.
func ablationTree(get func(Key) Result, _ Config) *stats.Table {
	t := stats.NewTable("Ablation: tree-based vs locality prefetcher (LRU, 50% oversubscription)",
		"App", "Tree/Locality", "Faults(tree)", "Faults(locality)")
	for _, b := range ablationTreeBenches {
		ref := get(Key{b, "baseline", 50})
		tr := get(Key{b, "tree", 50})
		t.AddRow(b, cell(Speedup(ref, tr)),
			fmt.Sprintf("%d", tr.UVM.FaultEvents),
			fmt.Sprintf("%d", ref.UVM.FaultEvents))
	}
	return t
}

// headlineKeys are the baseline and CPPE runs of the representatives at 50%
// oversubscription.
func headlineKeys(Config) []Key {
	return keysFor(representatives, []int{50}, "baseline", "cppe")
}

// breakdown attributes every translation to the path that resolved it (L1
// TLB, L2 TLB, page-table walk, far fault) and reports each path's share and
// mean latency — where the paper's 20 µs fault cost actually lands per
// workload, under the baseline and under CPPE.
func breakdown(get func(Key) Result, cfg Config) *stats.Table {
	t := stats.NewTable("Extension: translation latency breakdown (50% oversubscription)",
		"App", "Setup", "L1-TLB%", "L2-TLB%", "Walk%", "Fault%", "AvgFault(us)", "Cycles")
	t.Caption = "share of translations resolved per path; fault latency includes queueing behind other migrations"
	coreGHz := float64(cfg.Base.CoreClockHz) / 1e9
	for _, k := range headlineKeys(cfg) {
		r := get(k)
		bd := r.UVM.Breakdown
		t.AddRow(k.Bench, k.Setup,
			fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathL1Hit)),
			fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathL2Hit)),
			fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathWalk)),
			fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathFault)),
			fmt.Sprintf("%.1f", bd.AvgLatency(uvm.PathFault)/coreGHz/1000),
			fmt.Sprintf("%d", r.Cycles))
	}
	return t
}

// seedSession is a session with cfg's configuration under another workload
// seed: traces and the Random policy differ, nothing else does.
func seedSession(cfg Config, seed int64) *Session {
	cfg.Seed = seed
	return NewSession(cfg)
}

// robustness re-runs the headline comparison under the session's seed and the
// four after it and reports the spread of the Fig. 8 geomean — evidence that
// the reproduction's conclusions are not artifacts of one random trace. The
// session's own seed reads the rendering session's runs; each other seed gets
// a session of its own.
func robustness(get func(Key) Result, cfg Config) *stats.Table {
	t := stats.NewTable("Extension: seed robustness of the headline result",
		"Seed", "GeoMean speedup @50%", "Min", "Max")
	t.Caption = "CPPE vs baseline over one representative app per pattern type, re-generated workloads per seed"
	var geos []float64
	for seed := cfg.Seed; seed < cfg.Seed+5; seed++ {
		run := get
		if seed != cfg.Seed {
			sub := seedSession(cfg, seed)
			sub.Warm(headlineKeys(cfg))
			run = sub.Run
		}
		var sp []float64
		for _, b := range representatives {
			if v := Speedup(run(Key{b, "baseline", 50}), run(Key{b, "cppe", 50})); v > 0 {
				sp = append(sp, v)
			}
		}
		g := stats.GeoMean(sp)
		geos = append(geos, g)
		t.AddRow(fmt.Sprintf("%d", seed), cell(g), cell(stats.Min(sp)), cell(stats.Max(sp)))
	}
	t.AddRow("spread", cell(stats.GeoMean(geos)),
		cell(stats.Min(geos)), cell(stats.Max(geos)))
	return t
}
