package harness

import (
	"fmt"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/stats"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/workload"
)

// Rates are the paper's two oversubscription settings.
var Rates = []int{75, 50}

// fig3Benches are the applications of Fig. 3: four thrashing-pattern
// applications and two irregular (region-moving) ones.
var fig3Benches = []string{"SRD", "HSD", "MRQ", "STN", "B+T", "HYB"}

// fig7Benches are the applications whose pattern buffer is exercised
// (Fig. 7).
var fig7Benches = []string{"MVT", "SPV", "B+T", "BIC", "SAD", "BFS", "NW", "HWL", "HIS"}

// fig10Benches mix regular applications (which disabling prefetch hurts) and
// the severely thrashing ones (which it helps) — Fig. 10.
var fig10Benches = []string{"HOT", "2DC", "SRD", "HSD", "MRQ", "STN", "SAD", "NW", "MVT", "BIC", "HIS", "SPV"}

// sweepT3Benches are the applications that keep adjusting the forward
// distance at runtime (Section VI-A).
var sweepT3Benches = []string{"SRD", "HSD", "MRQ"}

// cell renders a speedup, using "X" for runs involving a crash.
func cell(v float64) string {
	if v == 0 {
		return "X"
	}
	return fmt.Sprintf("%.2f", v)
}

// TableI renders the simulated system configuration.
func TableI(cfg memdef.Config) *stats.Table {
	t := stats.NewTable("Table I: Configuration of simulated system", "Component", "Configuration")
	t.AddRow("GPU Cores", fmt.Sprintf("%d SMs, %.1fGHz", cfg.NumSMs, float64(cfg.CoreClockHz)/1e9))
	t.AddRow("Private L1 cache", fmt.Sprintf("%dKB, %d-way associative, LRU", cfg.L1CacheBytes>>10, cfg.L1CacheWays))
	t.AddRow("Private L1 TLB", fmt.Sprintf("%d-entry per SM, %d-cycle latency, LRU", cfg.L1TLBEntries, cfg.L1TLBLatency))
	t.AddRow("Shared L2 cache", fmt.Sprintf("%dMB total, %d-way associative, LRU", cfg.L2CacheBytes>>20, cfg.L2CacheWays))
	t.AddRow("Shared L2 TLB", fmt.Sprintf("%d-entry, %d-associative, %d-cycle latency, %d ports", cfg.L2TLBEntries, cfg.L2TLBWays, cfg.L2TLBLatency, cfg.L2TLBPorts))
	t.AddRow("Page Table Walker", fmt.Sprintf("%d concurrent walks, %d-level page table", cfg.PTWConcurrentWalks, cfg.PTWLevels))
	t.AddRow("Page Walk Cache", fmt.Sprintf("%d-way %dKB, %d-cycle latency", cfg.PWCWays, cfg.PWCBytes>>10, cfg.PWCLatency))
	t.AddRow("DRAM", fmt.Sprintf("GDDR5, %d-channel, %.0fGB/s aggregate", cfg.DRAMChannels, cfg.DRAMChannelGBs*float64(cfg.DRAMChannels)))
	t.AddRow("CPU-GPU interconnect", fmt.Sprintf("%.0fGB/s, %v page fault service time", cfg.PCIeGBs, cfg.FaultServiceTime))
	return t
}

// TableII renders the workload characteristics at the session's scale.
func (s *Session) TableII() *stats.Table {
	t := stats.NewTable("Table II: Workload Characteristics",
		"Workload", "Abbr.", "Footprint", "Scaled pages", "Suite", "Access pattern type")
	t.Caption = fmt.Sprintf("footprints scaled x%.3g for simulation", s.cfg.Scale)
	for _, r := range workload.TableII(s.cfg.Scale) {
		t.AddRow(r.Name, r.Abbr, fmt.Sprintf("%.1fMB", r.FootprintMB),
			fmt.Sprintf("%d", r.ScaledPages), r.Suite, r.Type.String())
	}
	return t
}

// Fig3 compares LRU against Random and reserved LRU at 50% oversubscription
// with the locality prefetcher (speedup normalized to LRU).
func (s *Session) Fig3() *stats.Table {
	setups := []string{"random", "lru-10%", "lru-20%"}
	var keys []Key
	for _, b := range fig3Benches {
		keys = append(keys, Key{b, "baseline", 50})
		for _, su := range setups {
			keys = append(keys, Key{b, su, 50})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Fig. 3: LRU vs Random and reserved LRU (50% oversubscription)",
		"App", "Random", "LRU-10%", "LRU-20%")
	t.Caption = "speedup over LRU with locality prefetch + pre-eviction"
	agg := map[string][]float64{}
	for _, b := range fig3Benches {
		ref := s.Run(Key{b, "baseline", 50})
		row := []string{b}
		for _, su := range setups {
			sp := Speedup(ref, s.Run(Key{b, su, 50}))
			agg[su] = append(agg[su], sp)
			row = append(row, cell(sp))
		}
		t.AddRow(row...)
	}
	avg := []string{"GeoMean"}
	for _, su := range setups {
		avg = append(avg, cell(stats.GeoMean(agg[su])))
	}
	t.AddRow(avg...)
	return t
}

// Fig4 quantifies thrashing from prefetching under oversubscription: page
// evictions with always-on prefetch normalized to prefetch-off-when-full,
// at 50% oversubscription. The paper plots only applications above 1.2.
func (s *Session) Fig4() *stats.Table {
	var keys []Key
	for _, b := range workload.Abbrs() {
		keys = append(keys, Key{b, "baseline", 50}, Key{b, "disable-on-full", 50})
	}
	s.Warm(keys)

	t := stats.NewTable("Fig. 4: Sensitivity to prefetching once memory is full (50% oversubscription)",
		"App", "Evictions(prefetch)", "Evictions(no-prefetch-when-full)", "Normalized", ">1.2")
	t.Caption = "page evictions with always-on prefetch, normalized to disabling prefetch when full"
	for _, b := range workload.Abbrs() {
		on := s.Run(Key{b, "baseline", 50})
		off := s.Run(Key{b, "disable-on-full", 50})
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

// TableIII reports the maximum per-interval untouch level in the first four
// intervals under the MHPE probe (MRU frozen, initial forward distance).
func (s *Session) TableIII() *stats.Table {
	var keys []Key
	for _, b := range workload.Abbrs() {
		for _, pct := range Rates {
			keys = append(keys, Key{b, "mhpe-probe", pct})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Table III: Maximum untouch level in first four intervals",
		"App", "75%", "50%")
	t.Caption = "MHPE probe mode: MRU, initial forward distance; apps with 0 at both rates omitted"
	for _, b := range workload.Abbrs() {
		m75, _ := untouchFirstFour(s.Run(Key{b, "mhpe-probe", 75}))
		m50, _ := untouchFirstFour(s.Run(Key{b, "mhpe-probe", 50}))
		if m75 == 0 && m50 == 0 {
			continue
		}
		t.AddRow(b, fmt.Sprintf("%d", m75), fmt.Sprintf("%d", m50))
	}
	return t
}

// TableIV reports the total untouch level over the first four intervals for
// the applications whose maximum stayed below T1.
func (s *Session) TableIV() *stats.Table {
	t1 := s.cfg.Base.T1
	t := stats.NewTable("Table IV: Total untouch level in the first four intervals",
		"App", "75%", "50%")
	t.Caption = fmt.Sprintf("apps whose Table III maximum stayed below T1=%d at the given rate ('/' otherwise)", t1)
	var keys []Key
	for _, b := range workload.Abbrs() {
		for _, pct := range Rates {
			keys = append(keys, Key{b, "mhpe-probe", pct})
		}
	}
	s.Warm(keys)
	for _, b := range workload.Abbrs() {
		m75, t75 := untouchFirstFour(s.Run(Key{b, "mhpe-probe", 75}))
		m50, t50 := untouchFirstFour(s.Run(Key{b, "mhpe-probe", 50}))
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

// SweepT3 evaluates forward-distance limits 16..40 (stride 4) on the
// applications that keep adjusting at runtime (Section VI-A).
func (s *Session) SweepT3() *stats.Table {
	t3s := []int{16, 20, 24, 28, 32, 36, 40}
	var keys []Key
	for _, b := range sweepT3Benches {
		keys = append(keys, Key{b, "baseline", 50})
		for _, t3 := range t3s {
			keys = append(keys, Key{b, fmt.Sprintf("cppe-t3-%d", t3), 50})
		}
	}
	s.Warm(keys)

	cols := []string{"App"}
	for _, t3 := range t3s {
		cols = append(cols, fmt.Sprintf("T3=%d", t3))
	}
	t := stats.NewTable("Sensitivity: forward distance limit T3 (50% oversubscription)", cols...)
	t.Caption = "speedup over baseline; paper selects T3=32"
	perT3 := map[int][]float64{}
	for _, b := range sweepT3Benches {
		ref := s.Run(Key{b, "baseline", 50})
		row := []string{b}
		for _, t3 := range t3s {
			sp := Speedup(ref, s.Run(Key{b, fmt.Sprintf("cppe-t3-%d", t3), 50}))
			perT3[t3] = append(perT3[t3], sp)
			row = append(row, cell(sp))
		}
		t.AddRow(row...)
	}
	avg := []string{"GeoMean"}
	for _, t3 := range t3s {
		avg = append(avg, cell(stats.GeoMean(perT3[t3])))
	}
	t.AddRow(avg...)
	return t
}

// Fig7 compares the two pattern-buffer deletion schemes (Scheme-2 relative
// to Scheme-1) at both oversubscription rates.
func (s *Session) Fig7() *stats.Table {
	var keys []Key
	for _, b := range fig7Benches {
		for _, pct := range Rates {
			keys = append(keys, Key{b, "cppe", pct}, Key{b, "cppe-s1", pct})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Fig. 7: Pattern deletion scheme comparison",
		"App", "Scheme-2/Scheme-1 @75%", "Scheme-2/Scheme-1 @50%")
	t.Caption = "speedup of Scheme-2 over Scheme-1"
	var a75, a50 []float64
	for _, b := range fig7Benches {
		s75 := Speedup(s.Run(Key{b, "cppe-s1", 75}), s.Run(Key{b, "cppe", 75}))
		s50 := Speedup(s.Run(Key{b, "cppe-s1", 50}), s.Run(Key{b, "cppe", 50}))
		a75 = append(a75, s75)
		a50 = append(a50, s50)
		t.AddRow(b, cell(s75), cell(s50))
	}
	t.AddRow("GeoMean", cell(stats.GeoMean(a75)), cell(stats.GeoMean(a50)))
	return t
}

// Fig8 is the headline result: CPPE speedup over the baseline at 75% and 50%
// oversubscription for every application.
func (s *Session) Fig8() *stats.Table {
	var keys []Key
	for _, b := range workload.Abbrs() {
		for _, pct := range Rates {
			keys = append(keys, Key{b, "baseline", pct}, Key{b, "cppe", pct})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Fig. 8: Performance of CPPE normalized to baseline",
		"App", "Type", "Speedup @75%", "Speedup @50%")
	t.Caption = "X marks runs where the baseline thrash-crashed (paper: MVT, BIC)"
	var a75, a50 []float64
	for _, b := range workload.All() {
		s75 := Speedup(s.Run(Key{b.Abbr, "baseline", 75}), s.Run(Key{b.Abbr, "cppe", 75}))
		s50 := Speedup(s.Run(Key{b.Abbr, "baseline", 50}), s.Run(Key{b.Abbr, "cppe", 50}))
		if s75 > 0 {
			a75 = append(a75, s75)
		}
		if s50 > 0 {
			a50 = append(a50, s50)
		}
		t.AddRow(b.Abbr, b.Type.Short(), cell(s75), cell(s50))
	}
	t.AddRow("GeoMean", "", cell(stats.GeoMean(a75)), cell(stats.GeoMean(a50)))
	t.AddRow("Max", "", cell(stats.Max(a75)), cell(stats.Max(a50)))
	return t
}

// Fig8Learned benchmarks the learned perceptron eviction policy against the
// paper's systems: learned and CPPE speedup over the baseline at 75% and 50%
// oversubscription for every application. It is the registry's end-to-end
// experiment — the learned policy reaches the sweep exclusively through its
// registered name.
func (s *Session) Fig8Learned() *stats.Table {
	var keys []Key
	for _, b := range workload.Abbrs() {
		for _, pct := range Rates {
			keys = append(keys,
				Key{b, "baseline", pct}, Key{b, "cppe", pct}, Key{b, "learned", pct})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Fig. 8 (learned): perceptron eviction vs CPPE, normalized to baseline",
		"App", "Type", "Learned @75%", "CPPE @75%", "Learned @50%", "CPPE @50%")
	t.Caption = "X marks runs where the baseline thrash-crashed"
	push := func(dst *[]float64, v float64) {
		if v > 0 {
			*dst = append(*dst, v)
		}
	}
	var al75, ac75, al50, ac50 []float64
	for _, b := range workload.All() {
		l75 := Speedup(s.Run(Key{b.Abbr, "baseline", 75}), s.Run(Key{b.Abbr, "learned", 75}))
		c75 := Speedup(s.Run(Key{b.Abbr, "baseline", 75}), s.Run(Key{b.Abbr, "cppe", 75}))
		l50 := Speedup(s.Run(Key{b.Abbr, "baseline", 50}), s.Run(Key{b.Abbr, "learned", 50}))
		c50 := Speedup(s.Run(Key{b.Abbr, "baseline", 50}), s.Run(Key{b.Abbr, "cppe", 50}))
		push(&al75, l75)
		push(&ac75, c75)
		push(&al50, l50)
		push(&ac50, c50)
		t.AddRow(b.Abbr, b.Type.Short(), cell(l75), cell(c75), cell(l50), cell(c50))
	}
	t.AddRow("GeoMean", "",
		cell(stats.GeoMean(al75)), cell(stats.GeoMean(ac75)),
		cell(stats.GeoMean(al50)), cell(stats.GeoMean(ac50)))
	return t
}

// Fig9 compares Random, reserved LRU and CPPE (all normalized to the
// baseline) at the given oversubscription rate.
func (s *Session) Fig9(pct int) *stats.Table {
	setups := []string{"random", "lru-10%", "lru-20%", "cppe"}
	var keys []Key
	for _, b := range workload.Abbrs() {
		keys = append(keys, Key{b, "baseline", pct})
		for _, su := range setups {
			keys = append(keys, Key{b, su, pct})
		}
	}
	s.Warm(keys)

	t := stats.NewTable(fmt.Sprintf("Fig. 9: Prior eviction policies vs CPPE (%d%% oversubscription)", pct),
		"App", "Type", "Random", "LRU-10%", "LRU-20%", "CPPE")
	t.Caption = "speedup over baseline (LRU + locality prefetch)"
	agg := map[string][]float64{}
	for _, b := range workload.All() {
		ref := s.Run(Key{b.Abbr, "baseline", pct})
		row := []string{b.Abbr, b.Type.Short()}
		for _, su := range setups {
			sp := Speedup(ref, s.Run(Key{b.Abbr, su, pct}))
			if sp > 0 {
				agg[su] = append(agg[su], sp)
			}
			row = append(row, cell(sp))
		}
		t.AddRow(row...)
	}
	avg := []string{"GeoMean", ""}
	for _, su := range setups {
		avg = append(avg, cell(stats.GeoMean(agg[su])))
	}
	t.AddRow(avg...)
	return t
}

// Fig10 compares disabling prefetch under oversubscription against the
// baseline and CPPE, normalized to the disable-prefetch configuration.
func (s *Session) Fig10() *stats.Table {
	var keys []Key
	for _, b := range fig10Benches {
		for _, pct := range Rates {
			keys = append(keys,
				Key{b, "disable-on-full", pct},
				Key{b, "baseline", pct},
				Key{b, "cppe", pct})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Fig. 10: Performance when disabling prefetch under oversubscription",
		"App", "Baseline @75%", "CPPE @75%", "Baseline @50%", "CPPE @50%")
	t.Caption = "speedup normalized to LRU + disable-prefetch-when-full; X = baseline crash"
	for _, b := range fig10Benches {
		row := []string{b}
		for _, pct := range Rates {
			ref := s.Run(Key{b, "disable-on-full", pct})
			row = append(row,
				cell(Speedup(ref, s.Run(Key{b, "baseline", pct}))),
				cell(Speedup(ref, s.Run(Key{b, "cppe", pct}))))
		}
		// Reorder: the loop appended 75 then 50 pairs already in order.
		t.AddRow(row...)
	}
	return t
}

// OverheadReport reproduces the Section VI-C storage accounting: average
// entry counts of CPPE's three structures across the benchmarks.
func (s *Session) OverheadReport() *stats.Table {
	var keys []Key
	for _, b := range workload.Abbrs() {
		for _, pct := range Rates {
			keys = append(keys, Key{b, "cppe", pct})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Section VI-C: CPPE structure overhead",
		"Rate", "Avg chain entries", "Avg pattern entries", "Avg wrong-evict entries", "Avg total", "Avg KB", "Pattern/chain %")
	for _, pct := range Rates {
		var chain, pattern, wrong, ratio []float64
		for _, b := range workload.Abbrs() {
			r := s.Run(Key{b, "cppe", pct})
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

// AblationHPE contrasts original HPE (counter-polluted by prefetching) with
// MHPE/CPPE, demonstrating Inefficiency 1.
func (s *Session) AblationHPE() *stats.Table {
	benches := []string{"SRD", "HSD", "MRQ", "STN", "NW", "B+T"}
	var keys []Key
	for _, b := range benches {
		keys = append(keys, Key{b, "baseline", 50}, Key{b, "hpe", 50}, Key{b, "cppe", 50})
	}
	s.Warm(keys)
	t := stats.NewTable("Ablation: HPE with prefetching vs CPPE (50% oversubscription)",
		"App", "HPE+locality", "CPPE", "HPE class")
	t.Caption = "speedup over baseline; HPE's counters are polluted by prefetched pages"
	for _, b := range benches {
		ref := s.Run(Key{b, "baseline", 50})
		hr := s.Run(Key{b, "hpe", 50})
		class := ""
		if hr.HPE != nil {
			class = hr.HPE.Class.String()
		}
		t.AddRow(b, cell(Speedup(ref, hr)), cell(Speedup(ref, s.Run(Key{b, "cppe", 50}))), class)
	}
	return t
}

// AblationTree contrasts the tree-based neighborhood prefetcher with the
// locality prefetcher (both under LRU) on regular applications.
func (s *Session) AblationTree() *stats.Table {
	benches := []string{"HOT", "2DC", "BKP", "PAT", "SRD", "NW"}
	var keys []Key
	for _, b := range benches {
		keys = append(keys, Key{b, "baseline", 50}, Key{b, "tree", 50})
	}
	s.Warm(keys)
	t := stats.NewTable("Ablation: tree-based vs locality prefetcher (LRU, 50% oversubscription)",
		"App", "Tree/Locality", "Faults(tree)", "Faults(locality)")
	for _, b := range benches {
		ref := s.Run(Key{b, "baseline", 50})
		tr := s.Run(Key{b, "tree", 50})
		t.AddRow(b, cell(Speedup(ref, tr)),
			fmt.Sprintf("%d", tr.UVM.FaultEvents),
			fmt.Sprintf("%d", ref.UVM.FaultEvents))
	}
	return t
}

// AblationMHPEDesign sweeps the design choices DESIGN.md calls out: interval
// length (paper: 64 pages), wrong-eviction buffer sizing (paper: scaled,
// max(8, 8*chainLen/64)) and initial forward distance (paper: chainLen/100
// clamped to [2,8]) — each against the paper's defaults, at 50%
// oversubscription.
func (s *Session) AblationMHPEDesign() *stats.Table {
	benches := []string{"SRD", "HSD", "NW", "HIS", "B+T"}
	variants := []string{"cppe", "cppe-int-32", "cppe-int-128", "cppe-buf-8", "cppe-buf-128", "cppe-fwd-2", "cppe-fwd-8"}
	var keys []Key
	for _, b := range benches {
		keys = append(keys, Key{b, "baseline", 50})
		for _, v := range variants {
			keys = append(keys, Key{b, v, 50})
		}
	}
	s.Warm(keys)
	cols := append([]string{"App"}, "CPPE", "int=32", "int=128", "buf=8", "buf=128", "fwd=2", "fwd=8")
	t := stats.NewTable("Ablation: MHPE design choices (50% oversubscription)", cols...)
	t.Caption = "speedup over baseline; CPPE column uses the paper's rules (interval 64, scaled buffer, chainLen/100 init)"
	agg := map[string][]float64{}
	for _, b := range benches {
		ref := s.Run(Key{b, "baseline", 50})
		row := []string{b}
		for _, v := range variants {
			sp := Speedup(ref, s.Run(Key{b, v, 50}))
			agg[v] = append(agg[v], sp)
			row = append(row, cell(sp))
		}
		t.AddRow(row...)
	}
	avg := []string{"GeoMean"}
	for _, v := range variants {
		avg = append(avg, cell(stats.GeoMean(agg[v])))
	}
	t.AddRow(avg...)
	return t
}

// AblationTrueLRU compares the deployable policies against an oracle LRU that
// sees actual GPU-side touch recency, quantifying the driver-visibility
// handicap MHPE works around.
func (s *Session) AblationTrueLRU() *stats.Table {
	benches := []string{"2DC", "KMN", "NW", "SRD", "HIS", "B+T"}
	var keys []Key
	for _, b := range benches {
		keys = append(keys,
			Key{b, "baseline", 50}, Key{b, "true-lru", 50}, Key{b, "cppe", 50})
	}
	s.Warm(keys)
	t := stats.NewTable("Ablation: oracle touch-recency LRU vs deployable policies (50% oversubscription)",
		"App", "TrueLRU (oracle)", "CPPE (deployable)")
	t.Caption = "speedup over baseline; TrueLRU uses GPU-side reference information a real driver lacks"
	var a, b2 []float64
	for _, b := range benches {
		ref := s.Run(Key{b, "baseline", 50})
		s1 := Speedup(ref, s.Run(Key{b, "true-lru", 50}))
		s2 := Speedup(ref, s.Run(Key{b, "cppe", 50}))
		a = append(a, s1)
		b2 = append(b2, s2)
		t.AddRow(b, cell(s1), cell(s2))
	}
	t.AddRow("GeoMean", cell(stats.GeoMean(a)), cell(stats.GeoMean(b2)))
	return t
}

// SweepRate generalizes Fig. 8 beyond the paper's two oversubscription
// points: CPPE's speedup over the baseline as GPU memory shrinks from 90% to
// 40% of the footprint, one representative application per pattern type.
func (s *Session) SweepRate() *stats.Table {
	rates := []int{90, 75, 60, 50, 40}
	benches := []string{"2DC", "KMN", "NW", "SRD", "HIS", "B+T"}
	var keys []Key
	for _, b := range benches {
		for _, pct := range rates {
			keys = append(keys, Key{b, "baseline", pct}, Key{b, "cppe", pct})
		}
	}
	s.Warm(keys)

	cols := []string{"App"}
	for _, pct := range rates {
		cols = append(cols, fmt.Sprintf("%d%%", pct))
	}
	t := stats.NewTable("Extension: CPPE speedup across oversubscription rates", cols...)
	t.Caption = "speedup over baseline; one representative application per pattern type"
	agg := map[int][]float64{}
	for _, b := range benches {
		row := []string{b}
		for _, pct := range rates {
			sp := Speedup(s.Run(Key{b, "baseline", pct}), s.Run(Key{b, "cppe", pct}))
			agg[pct] = append(agg[pct], sp)
			row = append(row, cell(sp))
		}
		t.AddRow(row...)
	}
	avg := []string{"GeoMean"}
	for _, pct := range rates {
		avg = append(avg, cell(stats.GeoMean(agg[pct])))
	}
	t.AddRow(avg...)
	return t
}

// Breakdown attributes every translation to the path that resolved it (L1
// TLB, L2 TLB, page-table walk, far fault) and reports each path's share and
// mean latency — where the paper's 20 µs fault cost actually lands per
// workload, under the baseline and under CPPE.
func (s *Session) Breakdown() *stats.Table {
	benches := []string{"2DC", "KMN", "NW", "SRD", "HIS", "B+T"}
	setups := []string{"baseline", "cppe"}
	var keys []Key
	for _, b := range benches {
		for _, su := range setups {
			keys = append(keys, Key{b, su, 50})
		}
	}
	s.Warm(keys)

	t := stats.NewTable("Extension: translation latency breakdown (50% oversubscription)",
		"App", "Setup", "L1-TLB%", "L2-TLB%", "Walk%", "Fault%", "AvgFault(us)", "Cycles")
	t.Caption = "share of translations resolved per path; fault latency includes queueing behind other migrations"
	coreGHz := float64(s.cfg.Base.CoreClockHz) / 1e9
	for _, b := range benches {
		for _, su := range setups {
			r := s.Run(Key{b, su, 50})
			bd := r.UVM.Breakdown
			t.AddRow(b, su,
				fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathL1Hit)),
				fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathL2Hit)),
				fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathWalk)),
				fmt.Sprintf("%.1f", 100*bd.Share(uvm.PathFault)),
				fmt.Sprintf("%.1f", bd.AvgLatency(uvm.PathFault)/coreGHz/1000),
				fmt.Sprintf("%d", r.Cycles))
		}
	}
	return t
}

// Robustness re-runs the headline comparison under several workload seeds
// and reports the spread of the Fig. 8 geomean — evidence that the
// reproduction's conclusions are not artifacts of one random trace.
func (s *Session) Robustness(seeds ...int64) *stats.Table {
	if len(seeds) == 0 {
		seeds = []int64{0, 1, 2, 3, 4}
	}
	benches := []string{"2DC", "KMN", "NW", "SRD", "HIS", "B+T"}
	t := stats.NewTable("Extension: seed robustness of the headline result",
		"Seed", "GeoMean speedup @50%", "Min", "Max")
	t.Caption = "CPPE vs baseline over one representative app per pattern type, re-generated workloads per seed"
	var geos []float64
	for _, seed := range seeds {
		// A sub-session per seed: traces and the Random policy differ.
		sub := NewSession(Config{
			Base:            s.cfg.Base,
			Scale:           s.cfg.Scale,
			Warps:           s.cfg.Warps,
			AccessesPerPage: s.cfg.AccessesPerPage,
			Seed:            seed,
			Parallelism:     s.cfg.Parallelism,
			MaxEvents:       s.cfg.MaxEvents,
		})
		var keys []Key
		for _, b := range benches {
			keys = append(keys, Key{b, "baseline", 50}, Key{b, "cppe", 50})
		}
		sub.Warm(keys)
		var sp []float64
		for _, b := range benches {
			v := Speedup(sub.Run(Key{b, "baseline", 50}), sub.Run(Key{b, "cppe", 50}))
			if v > 0 {
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
