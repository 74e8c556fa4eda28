package harness

import (
	"fmt"

	"github.com/reproductions/cppe/internal/stats"
	"github.com/reproductions/cppe/internal/workload"
)

// Claim is one executable assertion about a paper finding: reproducing the
// *ordinal* claims of the evaluation (who wins, which classes invert) rather
// than absolute numbers.
type Claim struct {
	ID     string
	Text   string
	Pass   bool
	Detail string
}

// claimKeys are every simulation CheckClaims reads.
func claimKeys(Config) []Key {
	keys := keysFor(workload.Abbrs(), Rates, "baseline", "cppe", "disable-on-full")
	keys = append(keys, keysFor(workload.Abbrs(), []int{50}, "lru-10%", "lru-20%", "random")...)
	return append(keys, Key{"NW", "cppe-s1", 50})
}

// CheckClaims evaluates the paper's key findings against the simulations get
// returns and returns one verdict per claim. It is the machine-checkable
// companion to EXPERIMENTS.md.
func CheckClaims(get func(Key) Result) []Claim {
	var claims []Claim
	add := func(id, text string, pass bool, detail string, args ...interface{}) {
		claims = append(claims, Claim{
			ID: id, Text: text, Pass: pass,
			Detail: fmt.Sprintf(detail, args...),
		})
	}

	speedup := func(bench, setup string, pct int) float64 {
		return Speedup(get(Key{bench, "baseline", pct}), get(Key{bench, setup, pct}))
	}

	// --- Fig. 3 / Fig. 9: reserved LRU ---
	{
		var typeVI []float64
		for _, b := range workload.ByType(workload.TypeVI) {
			typeVI = append(typeVI, speedup(b.Abbr, "lru-10%", 50))
		}
		worst := stats.Min(typeVI)
		add("reserved-hurts-type6",
			"Reserved LRU degrades region-moving (Type VI) applications",
			worst < 0.9, "worst Type VI speedup under LRU-10%% at 50%%: %.2f", worst)

		var typeIV []float64
		for _, b := range workload.ByType(workload.TypeIV) {
			typeIV = append(typeIV, speedup(b.Abbr, "lru-20%", 50))
		}
		add("reserved-helps-thrash",
			"Reserved LRU gives (limited) speedup on thrashing (Type IV) applications",
			stats.GeoMean(typeIV) > 1.0, "Type IV geomean under LRU-20%% at 50%%: %.2f", stats.GeoMean(typeIV))
	}

	// --- Fig. 4: eviction blow-up from naive prefetching ---
	{
		ratio := func(b string) float64 {
			on := get(Key{b, "baseline", 50})
			off := get(Key{b, "disable-on-full", 50})
			if off.UVM.EvictedPages == 0 {
				return 0
			}
			return float64(on.UVM.EvictedPages) / float64(off.UVM.EvictedPages)
		}
		add("prefetch-thrash-blowup",
			"Naive prefetching under oversubscription blows up evictions >=5x for MVT/BIC/NW",
			ratio("MVT") >= 5 && ratio("BIC") >= 5 && ratio("NW") >= 5,
			"MVT %.1fx, BIC %.1fx, NW %.1fx", ratio("MVT"), ratio("BIC"), ratio("NW"))
		add("prefetch-benign-regular",
			"Dense regular applications see no eviction blow-up (within 20%)",
			ratio("2DC") <= 1.2 && ratio("MRQ") <= 1.2 && ratio("STN") <= 1.2,
			"2DC %.2fx, MRQ %.2fx, STN %.2fx", ratio("2DC"), ratio("MRQ"), ratio("STN"))
	}

	// --- Fig. 8: headline ---
	{
		var all75, all50 []float64
		for _, b := range workload.Abbrs() {
			if v := speedup(b, "cppe", 75); v > 0 {
				all75 = append(all75, v)
			}
			if v := speedup(b, "cppe", 50); v > 0 {
				all50 = append(all50, v)
			}
		}
		g75, g50 := stats.GeoMean(all75), stats.GeoMean(all50)
		add("cppe-wins-average",
			"CPPE outperforms the baseline on average at both rates",
			g75 > 1.05 && g50 > 1.05, "geomean %.2fx @75%%, %.2fx @50%%", g75, g50)

		var t4 []float64
		for _, b := range workload.ByType(workload.TypeIV) {
			t4 = append(t4, speedup(b.Abbr, "cppe", 50))
		}
		add("cppe-wins-thrash",
			"CPPE's largest class gains are on thrashing (Type IV) applications",
			stats.GeoMean(t4) > 1.15, "Type IV geomean @50%%: %.2fx", stats.GeoMean(t4))

		neutral := true
		for _, b := range append(workload.ByType(workload.TypeI), workload.ByType(workload.TypeVI)...) {
			v := speedup(b.Abbr, "cppe", 50)
			if v < 0.9 {
				neutral = false
			}
		}
		add("cppe-neutral-lru-friendly",
			"CPPE never costs LRU-friendly (Type I/VI) applications more than ~10%",
			neutral, "min across Type I+VI checked at 50%%")
	}

	// --- Fig. 10: disabling prefetch ---
	{
		hurts := speedup("HOT", "disable-on-full", 50) < 0.5
		add("disable-hurts-regular",
			"Disabling prefetch under oversubscription slows regular applications dramatically",
			hurts, "HOT with disable-on-full at 50%%: %.2fx of baseline", speedup("HOT", "disable-on-full", 50))

		helps := speedup("MVT", "disable-on-full", 75) > 1.0
		add("disable-helps-strided",
			"Disabling prefetch beats the naive baseline for severely thrashing MVT",
			helps, "MVT with disable-on-full at 75%%: %.2fx of baseline", speedup("MVT", "disable-on-full", 75))

		cppeBeats := true
		for _, b := range fig10Benches {
			for _, pct := range Rates {
				ref := get(Key{b, "disable-on-full", pct})
				if v := Speedup(ref, get(Key{b, "cppe", pct})); v > 0 && v < 0.95 {
					cppeBeats = false
				}
			}
		}
		add("cppe-beats-disable",
			"CPPE matches or beats disabling prefetch everywhere (paper: except SAD)",
			cppeBeats, "checked %d apps x 2 rates with 5%% tolerance", len(fig10Benches))
	}

	// --- Fig. 7: deletion schemes ---
	{
		nw := Speedup(get(Key{"NW", "cppe-s1", 50}), get(Key{"NW", "cppe", 50}))
		add("scheme2-wins-strided",
			"Scheme-2 outperforms Scheme-1 for fixed-stride applications (NW)",
			nw > 1.02, "NW Scheme-2/Scheme-1 at 50%%: %.2fx", nw)
	}

	return claims
}

// claimsTable renders the verdicts.
func claimsTable(get func(Key) Result, _ Config) *stats.Table {
	t := stats.NewTable("Reproduction self-check: the paper's ordinal claims",
		"Verdict", "Claim", "Measured")
	pass := 0
	claims := CheckClaims(get)
	for _, c := range claims {
		v := "FAIL"
		if c.Pass {
			v = "PASS"
			pass++
		}
		t.AddRow(v, c.Text, c.Detail)
	}
	t.Caption = fmt.Sprintf("%d of %d claims reproduced", pass, len(claims))
	return t
}
