package harness

import (
	"strconv"
	"strings"
	"testing"
)

// small returns a fast session shared by the experiment content tests.
func small() *Session {
	return NewSession(Config{Scale: 0.05, Warps: 32})
}

func TestFig4ContentAndRatios(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := small()
	tb := experiment(t, s, "fig4")
	if len(tb.Rows) != 23 {
		t.Fatalf("Fig 4 rows = %d", len(tb.Rows))
	}
	// The strided apps must carry the blow-up marker; pure streams must not.
	marked := map[string]bool{}
	for _, r := range tb.Rows {
		marked[r[0]] = r[4] == "*"
	}
	for _, app := range []string{"MVT", "BIC", "NW"} {
		if !marked[app] {
			t.Errorf("%s not marked as >1.2 eviction blow-up", app)
		}
	}
	for _, app := range []string{"2DC", "3DC", "MRQ", "STN"} {
		if marked[app] {
			t.Errorf("%s wrongly marked (dense app)", app)
		}
	}
}

func TestFig8ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := small()
	tb := experiment(t, s, "fig8")
	get := func(app string, col int) string {
		for _, r := range tb.Rows {
			if r[0] == app {
				return r[col]
			}
		}
		t.Fatalf("app %s missing", app)
		return ""
	}
	// Ordinal claims of the paper, at 50% (column 3):
	// Type IV thrashers beat the baseline...
	for _, app := range []string{"MRQ", "STN"} {
		if v := get(app, 3); v <= "1.0" && !strings.HasPrefix(v, "1.") && !strings.HasPrefix(v, "2.") {
			t.Errorf("%s @50%% = %s, want > 1", app, v)
		}
	}
	// ...while region-moving apps stay near 1 (0.9-1.1 band).
	for _, app := range []string{"B+T", "HYB"} {
		v := get(app, 3)
		if !(strings.HasPrefix(v, "0.9") || strings.HasPrefix(v, "1.0") || strings.HasPrefix(v, "1.1")) {
			t.Errorf("%s @50%% = %s, want ~1.0", app, v)
		}
	}
}

func TestBreakdownContent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := small()
	tb := experiment(t, s, "breakdown")
	if len(tb.Rows) != 12 { // 6 apps x 2 setups
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		// Path shares must sum to ~100%.
		sum := 0.0
		for _, c := range r[2:6] {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				t.Fatalf("bad cell %q", c)
			}
			sum += v
		}
		if sum < 99 || sum > 101 {
			t.Errorf("%s/%s: path shares sum to %.1f", r[0], r[1], sum)
		}
	}
}

func TestSweepRateContent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := small()
	tb := experiment(t, s, "sweep-rate")
	if len(tb.Rows) != 7 { // 6 apps + geomean
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if tb.Rows[len(tb.Rows)-1][0] != "GeoMean" {
		t.Fatal("missing aggregate row")
	}
}

func TestAblationTablesContent(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := small()
	if tb := experiment(t, s, "ablation-mhpe-design"); len(tb.Rows) != 6 {
		t.Fatalf("mhpe-design rows = %d", len(tb.Rows))
	}
	tb := experiment(t, s, "ablation-true-lru")
	if len(tb.Rows) != 7 {
		t.Fatalf("true-lru rows = %d", len(tb.Rows))
	}
	hpe := experiment(t, s, "ablation-hpe")
	// The HPE ablation must report a classification for every app.
	for _, r := range hpe.Rows {
		if r[3] == "" {
			t.Errorf("missing HPE class for %s", r[0])
		}
	}
}

// TestExperimentsReadOnlyDeclaredKeys renders every experiment with a get
// that reports any simulation its Keys did not declare: an undeclared key
// would run alone, outside the session's worker pool, after the pool drained.
func TestExperimentsReadOnlyDeclaredKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(Config{Scale: 0.02, Warps: 16})
	for _, e := range Experiments {
		t.Run(e.ID, func(t *testing.T) {
			declared := map[Key]bool{}
			if e.Keys != nil {
				keys := e.Keys(s.cfg)
				for _, k := range keys {
					declared[k] = true
				}
				s.Warm(keys)
			}
			get := func(k Key) Result {
				if !declared[k] {
					t.Errorf("%s reads undeclared key %v", e.ID, k)
				}
				return s.Run(k)
			}
			if tb := e.Render(get, s.cfg); len(tb.Rows) == 0 {
				t.Errorf("%s rendered no rows", e.ID)
			}
		})
	}
}

// TestSeedSessionKeepsConfig: robustness's per-seed sessions differ from the
// rendering session in the seed alone, so a disabled watchdog stays disabled.
func TestSeedSessionKeepsConfig(t *testing.T) {
	cfg := NewSession(Config{Scale: 0.05, Warps: 32, WatchdogWindow: -1, MaxEvents: 1 << 20}).Config()
	want := cfg
	want.Seed = 3
	if got := seedSession(cfg, 3).Config(); got != want {
		t.Fatalf("seed session config = %+v, want %+v", got, want)
	}
}

// TestRobustnessSpansSessionSeeds: robustness reports the session's seed and
// the four after it, and reads the session's own seed through get instead of
// re-running those simulations.
func TestRobustnessSpansSessionSeeds(t *testing.T) {
	s := NewSession(Config{Scale: 0.05, Warps: 32, Seed: 3})
	e, _ := LookupExperiment("robustness")
	s.Warm(e.Keys(s.cfg))
	reads := 0
	tb := e.Render(func(k Key) Result { reads++; return s.Run(k) }, s.cfg)
	var seeds []string
	for _, row := range tb.Rows[:len(tb.Rows)-1] {
		seeds = append(seeds, row[0])
	}
	if got, want := strings.Join(seeds, ","), "3,4,5,6,7"; got != want {
		t.Errorf("robustness seeds = %s, want %s", got, want)
	}
	if want := len(e.Keys(s.cfg)); reads != want {
		t.Errorf("robustness read %d results through get, want the session seed's %d", reads, want)
	}
}
