package harness

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/sm"
	"github.com/reproductions/cppe/internal/trace"
	"github.com/reproductions/cppe/internal/workload"
)

func TestCapacityFor(t *testing.T) {
	cases := []struct{ footprint, pct, want int }{
		{3200, 50, 1600},
		{3200, 75, 2400},
		{3200, 0, 0},                     // unlimited
		{3210, 50, 1600},                 // chunk-aligned down
		{100, 50, 8 * memdef.ChunkPages}, // floor
		{10000, 100, 10000},              // full footprint
	}
	for _, c := range cases {
		if got := capacityFor(c.footprint, c.pct); got != c.want {
			t.Errorf("capacityFor(%d, %d) = %d, want %d", c.footprint, c.pct, got, c.want)
		}
	}
}

func TestKeyString(t *testing.T) {
	k := Key{"SRD", "cppe", 50}
	if k.String() != "SRD/cppe@50%" {
		t.Fatalf("key = %q", k.String())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Scale != 0.25 || c.Warps != 64 || c.AccessesPerPage != 2 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Parallelism <= 0 || c.MaxEvents == 0 {
		t.Fatalf("defaults = %+v", c)
	}
	if c.Base.NumSMs != 28 {
		t.Fatalf("base config not defaulted: %+v", c.Base)
	}
}

func TestUnknownBenchOrSetupFailsTyped(t *testing.T) {
	s := NewSession(Config{Scale: 0.05, Warps: 8})
	for _, k := range []Key{{"NOPE", "cppe", 50}, {"SRD", "nope", 50}} {
		r := s.Run(k)
		if !r.Crashed {
			t.Errorf("%v: not marked crashed", k)
		}
		if !errors.Is(r.Err, ErrUnknownKey) {
			t.Errorf("%v: Err = %v, want ErrUnknownKey", k, r.Err)
		}
		if Speedup(r, r) != 0 {
			t.Errorf("%v: failed run must not yield a speedup", k)
		}
	}
}

// TestDynamicSetupPairsFailTyped: "<eviction>+<prefetcher>" setup names with
// an unknown half classify as policy.ErrUnknownPolicy — distinguishable by
// callers from a plain unknown setup (ErrUnknownKey) — and never panic.
func TestDynamicSetupPairsFailTyped(t *testing.T) {
	s := NewSession(Config{Scale: 0.05, Warps: 8})
	cases := []struct {
		setup string
		want  error
	}{
		{"nosuch+locality", policy.ErrUnknownPolicy},
		{"mhpe+nosuch", policy.ErrUnknownPolicy},
		{"+", policy.ErrUnknownPolicy},
		{"nosuch", ErrUnknownKey},
		{"nosuch+also+nosuch", policy.ErrUnknownPolicy},
	}
	for _, tc := range cases {
		if _, err := s.ResolveSetup(tc.setup); !errors.Is(err, tc.want) {
			t.Errorf("ResolveSetup(%q) = %v, want errors.Is(%v)", tc.setup, err, tc.want)
		}
		r := s.Run(Key{"SRD", tc.setup, 50})
		if !r.Crashed {
			t.Errorf("%q: failed run not marked crashed", tc.setup)
		}
		if !errors.Is(r.Err, tc.want) {
			t.Errorf("%q: Result.Err = %v, want errors.Is(%v)", tc.setup, r.Err, tc.want)
		}
	}
}

// TestDynamicSetupPairResolves: a well-formed pair of registered names is a
// runnable setup even though it was never registered as one.
func TestDynamicSetupPairResolves(t *testing.T) {
	s := NewSession(Config{Scale: 0.05, Warps: 8})
	su, err := s.ResolveSetup("true-lru+none")
	if err != nil {
		t.Fatal(err)
	}
	if su.Name != "true-lru+none" {
		t.Fatalf("setup name = %q", su.Name)
	}
	r := s.Run(Key{"STN", "true-lru+none", 50})
	if r.Err != nil {
		t.Fatalf("dynamic pair run failed: %v", r.Err)
	}
	if r.Cycles == 0 || r.Accesses == 0 {
		t.Fatalf("degenerate run: %+v", r)
	}
}

func TestRunCachedAndDeterministic(t *testing.T) {
	s := NewSession(Config{Scale: 0.05, Warps: 16})
	k := Key{"STN", "baseline", 50}
	a := s.Run(k)
	if s.CachedRuns() != 1 {
		t.Fatalf("cached = %d", s.CachedRuns())
	}
	b := s.Run(k)
	if a.Cycles != b.Cycles {
		t.Fatal("cache miss returned different result")
	}
	// A brand-new session must reproduce the same numbers.
	s2 := NewSession(Config{Scale: 0.05, Warps: 16})
	c := s2.Run(k)
	if c.Cycles != a.Cycles || c.UVM.FaultEvents != a.UVM.FaultEvents {
		t.Fatalf("cross-session nondeterminism: %d vs %d cycles", c.Cycles, a.Cycles)
	}
}

func TestWarmMatchesRun(t *testing.T) {
	keys := []Key{
		{"STN", "baseline", 50},
		{"STN", "cppe", 50},
		{"MRQ", "baseline", 50},
	}
	par := NewSession(Config{Scale: 0.05, Warps: 16, Parallelism: 4})
	par.Warm(append(keys, keys...)) // duplicates must be deduped
	if par.CachedRuns() != len(keys) {
		t.Fatalf("cached = %d, want %d", par.CachedRuns(), len(keys))
	}
	ser := NewSession(Config{Scale: 0.05, Warps: 16, Parallelism: 1})
	for _, k := range keys {
		if par.Run(k).Cycles != ser.Run(k).Cycles {
			t.Fatalf("parallel/serial mismatch on %v", k)
		}
	}
}

func TestSpeedupSemantics(t *testing.T) {
	ref := Result{Cycles: 200}
	cand := Result{Cycles: 100}
	if got := Speedup(ref, cand); got != 2 {
		t.Fatalf("speedup = %v", got)
	}
	if Speedup(Result{Cycles: 100, Crashed: true}, cand) != 0 {
		t.Fatal("crashed reference must yield 0")
	}
	if Speedup(ref, Result{Crashed: true, Cycles: 1}) != 0 {
		t.Fatal("crashed candidate must yield 0")
	}
	if Speedup(ref, Result{}) != 0 {
		t.Fatal("zero-cycle candidate must yield 0")
	}
}

func TestResultTypedStats(t *testing.T) {
	s := NewSession(Config{Scale: 0.05, Warps: 16})
	cppeRun := s.Run(Key{"STN", "cppe", 50})
	if cppeRun.MHPE == nil || cppeRun.Pattern == nil {
		t.Fatal("cppe run missing MHPE/pattern stats")
	}
	if cppeRun.HPE != nil {
		t.Fatal("cppe run has HPE stats")
	}
	hpeRun := s.Run(Key{"STN", "hpe", 50})
	if hpeRun.HPE == nil || hpeRun.MHPE != nil {
		t.Fatal("hpe run stats wrong")
	}
	base := s.Run(Key{"STN", "baseline", 50})
	if base.MHPE != nil || base.Pattern != nil || base.HPE != nil {
		t.Fatal("baseline run has policy-specific stats")
	}
}

// TestRunTraceReportsPolicyStats runs a recorded trace under the learned and
// cppe setups. Trace runs share the build and collect steps of keyed runs,
// so they report the same typed policy stats, the perceptron's included.
func TestRunTraceReportsPolicyStats(t *testing.T) {
	b, _ := workload.ByAbbr("STN")
	g := b.Generate(workload.Options{Scale: 0.05, Warps: 16})
	tr := &trace.Trace{FootprintPages: g.FootprintPages, Warps: g.Warps}
	s := NewSession(Config{Scale: 0.05, Warps: 16})
	learned := s.RunTrace(tr, "learned", 50)
	if learned.Err != nil || learned.Learned == nil {
		t.Fatalf("learned trace run: err %v, Learned stats %v; want stats", learned.Err, learned.Learned)
	}
	if learned.Learned.Evictions == 0 {
		t.Errorf("learned trace run made no eviction decisions: %+v", *learned.Learned)
	}
	cppeRun := s.RunTrace(tr, "cppe", 50)
	if cppeRun.Err != nil || cppeRun.MHPE == nil || cppeRun.Pattern == nil || cppeRun.Learned != nil {
		t.Fatalf("cppe trace run: err %v, MHPE %v, Pattern %v, Learned %v", cppeRun.Err, cppeRun.MHPE, cppeRun.Pattern, cppeRun.Learned)
	}
}

// TestSessionRecyclesMachines checks the session's machine free list: each
// finished run hands its machine back, the next run reuses it, and a run on
// a recycled machine — another benchmark, setup and capacity before it —
// returns exactly what a fresh session returns.
func TestSessionRecyclesMachines(t *testing.T) {
	s := NewSession(Config{Scale: 0.05, Warps: 16, Parallelism: 1})
	for i, k := range []Key{{"STN", "cppe", 50}, {"NW", "baseline", 75}, {"HIS", "learned", 0}, {"BFS", "tree", 50}} {
		var reused *sm.Machine
		if i > 0 {
			reused = s.machines[0]
		}
		got := s.Run(k)
		if len(s.machines) != 1 || (reused != nil && s.machines[0] != reused) {
			t.Fatalf("after %v: free list %v, want the one machine %p", k, s.machines, reused)
		}
		want := NewSession(Config{Scale: 0.05, Warps: 16, Parallelism: 1}).Run(k)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v on a recycled machine:\n got %+v\nwant %+v", k, got, want)
		}
	}

	// A lockstep sweep never keeps more machines than it ran at once: two
	// workers of at most two lanes each.
	par := NewSession(Config{Scale: 0.05, Warps: 16, Parallelism: 2})
	par.Warm([]Key{
		{"STN", "cppe", 50}, {"STN", "baseline", 50},
		{"NW", "cppe", 50}, {"NW", "baseline", 50},
		{"SRD", "cppe", 50}, {"SRD", "baseline", 50},
	})
	if n := len(par.machines); n == 0 || n > 4 {
		t.Errorf("after a 3-group sweep at Parallelism 2: %d machines on the free list, want 1 to 4", n)
	}
}

func TestUntouchFirstFour(t *testing.T) {
	r := Result{MHPE: &evict.MHPEStats{IntervalUntouch: []int{10, 60, 5, 3, 99}}}
	maxv, total := untouchFirstFour(r)
	if maxv != 60 || total != 78 {
		t.Fatalf("max=%d total=%d", maxv, total)
	}
	if m, tt := untouchFirstFour(Result{}); m != 0 || tt != 0 {
		t.Fatal("nil MHPE must yield zeros")
	}
}

func TestCellRendersCrashAsX(t *testing.T) {
	if cell(0) != "X" || cell(1.5) != "1.50" {
		t.Fatalf("cell = %q/%q", cell(0), cell(1.5))
	}
}

func TestTableIStatic(t *testing.T) {
	out := TableI(memdef.DefaultConfig()).String()
	for _, want := range []string{"28 SMs, 1.4GHz", "512-entry", "64 concurrent walks", "528GB/s", "16GB/s"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestTableIIStatic(t *testing.T) {
	s := NewSession(Config{Scale: 0.05})
	out := s.TableII().String()
	for _, b := range workload.Abbrs() {
		if !strings.Contains(out, b) {
			t.Errorf("Table II missing %s", b)
		}
	}
}

func TestExperimentSetupsRegistered(t *testing.T) {
	s := NewSession(Config{Scale: 0.05})
	needed := []string{
		"baseline", "cppe", "cppe-s1", "random", "lru-10%", "lru-20%",
		"disable-on-full", "hpe", "tree", "mhpe-probe",
		"cppe-t3-16", "cppe-t3-40",
	}
	for _, n := range needed {
		if _, err := s.ResolveSetup(n); err != nil {
			t.Errorf("setup %q: %v", n, err)
		}
	}
}

// TestSetupTablePairsRegistered: every named setup is a pair of registered
// policy names whose factories build a fresh instance per run.
func TestSetupTablePairsRegistered(t *testing.T) {
	cfg := memdef.DefaultConfig()
	seen := map[string]bool{}
	for _, su := range setups {
		if su.Name == "" || seen[su.Name] {
			t.Fatalf("empty or duplicate setup name %q", su.Name)
		}
		seen[su.Name] = true
		if _, err := policy.Lookup(policy.KindEviction, su.Eviction); err != nil {
			t.Errorf("%s: %v", su.Name, err)
		}
		if _, err := policy.Lookup(policy.KindPrefetch, su.Prefetch); err != nil {
			t.Errorf("%s: %v", su.Name, err)
		}
		p1, err1 := su.NewPolicy(cfg, 1)
		p2, err2 := su.NewPolicy(cfg, 1)
		if err1 != nil || err2 != nil || p1 == p2 {
			t.Errorf("%s: policy factory: %v %v, shared instance %v", su.Name, err1, err2, p1 == p2)
		}
		if pf, err := su.NewPrefetcher(cfg); err != nil || pf == nil {
			t.Errorf("%s: prefetcher factory: %v", su.Name, err)
		}
	}
}

func TestFig3EndToEndSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(Config{Scale: 0.05, Warps: 32})
	out := s.Fig3().String()
	for _, b := range fig3Benches {
		if !strings.Contains(out, b) {
			t.Errorf("Fig 3 missing %s:\n%s", b, out)
		}
	}
	if !strings.Contains(out, "GeoMean") {
		t.Error("Fig 3 missing aggregate row")
	}
}

func TestTableIIIEndToEndSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := NewSession(Config{Scale: 0.05, Warps: 32})
	out := s.TableIII().String()
	// Thrashing (dense) apps have untouch 0 and must be omitted; sparse
	// ones (B+T) must be present.
	if strings.Contains(out, "MRQ") {
		t.Errorf("Table III contains dense app MRQ:\n%s", out)
	}
	if !strings.Contains(out, "B+T") {
		t.Errorf("Table III missing sparse app B+T:\n%s", out)
	}
}
