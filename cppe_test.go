package cppe

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fastSession returns a shared small-scale session for API tests.
var apiSess = NewSession(Options{Scale: 0.05, Warps: 32})

func TestBenchmarksList(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 23 {
		t.Fatalf("benchmarks = %d, want 23", len(bs))
	}
	if bs[0] != "HOT" || bs[len(bs)-1] != "HYB" {
		t.Fatalf("order = %v", bs)
	}
}

func TestSetupsResolvable(t *testing.T) {
	for _, su := range Setups() {
		if _, err := apiSess.h.ResolveSetup(su); err != nil {
			t.Errorf("setup %q: %v", su, err)
		}
	}
}

// TestSetupsListsEveryNamedSetup: every named setup the experiments run, and
// so Run accepts, is listed (cppe-sim -list prints Setups).
func TestSetupsListsEveryNamedSetup(t *testing.T) {
	listed := map[string]bool{}
	for _, su := range Setups() {
		listed[su] = true
	}
	named := []string{
		"cppe-t3-16", "cppe-t3-20", "cppe-t3-24", "cppe-t3-28", "cppe-t3-32", "cppe-t3-36", "cppe-t3-40",
		"cppe-int-32", "cppe-int-128", "cppe-buf-8", "cppe-buf-128", "cppe-fwd-2", "cppe-fwd-8",
		"mhpe-probe", "true-lru",
		SetupBaseline, SetupCPPE, SetupCPPEScheme1, SetupRandom, SetupReservedLRU10,
		SetupReservedLRU20, SetupDisableOnFull, SetupHPE, SetupTree, SetupLearned,
	}
	for _, su := range named {
		if _, err := apiSess.h.ResolveSetup(su); err != nil {
			t.Errorf("setup %q: %v", su, err)
		}
		if !listed[su] {
			t.Errorf("setup %q is accepted but not listed", su)
		}
	}
	if len(Setups()) != len(named) {
		t.Errorf("Setups() = %v, want the %d named setups", Setups(), len(named))
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := apiSess.Run(Request{Benchmark: "NOPE", Setup: SetupCPPE, Oversubscription: 50}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, err := apiSess.Run(Request{Benchmark: "SRD", Setup: "nope", Oversubscription: 50}); err == nil {
		t.Error("unknown setup accepted")
	}
	if _, err := apiSess.Run(Request{Benchmark: "SRD", Setup: SetupCPPE, Oversubscription: 101}); err == nil {
		t.Error("bad rate accepted")
	}
}

// TestRunUnknownPolicyTyped: the public API classifies a dynamic
// "<eviction>+<prefetcher>" setup with an unknown half as ErrUnknownPolicy —
// the error cppe-sim turns into a message plus exit status 1, never a panic.
func TestRunUnknownPolicyTyped(t *testing.T) {
	for _, setup := range []string{"nosuch+locality", "mhpe+nosuch"} {
		_, err := apiSess.Run(Request{Benchmark: "SRD", Setup: setup, Oversubscription: 50})
		if !errors.Is(err, ErrUnknownPolicy) {
			t.Errorf("Run(setup=%q) err = %v, want errors.Is(ErrUnknownPolicy)", setup, err)
		}
	}
	// A valid registered pair is accepted by validation.
	if _, err := apiSess.Run(Request{Benchmark: "STN", Setup: "true-lru+none", Oversubscription: 50}); err != nil {
		t.Errorf("valid dynamic pair rejected: %v", err)
	}
}

func TestRunAndSpeedup(t *testing.T) {
	req := Request{Benchmark: "STN", Setup: SetupCPPE, Oversubscription: 50}
	r, err := apiSess.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Accesses == 0 || r.FaultEvents == 0 {
		t.Fatalf("suspicious result: %+v", r)
	}
	if r.CapacityPages >= r.FootprintPages {
		t.Fatalf("no oversubscription: capacity %d >= footprint %d", r.CapacityPages, r.FootprintPages)
	}
	base := apiSess.MustRun(Request{Benchmark: "STN", Setup: SetupBaseline, Oversubscription: 50})
	sp := Speedup(base, r)
	if sp <= 0 {
		t.Fatalf("speedup = %v", sp)
	}
	// Cached: second run must be identical.
	r2 := apiSess.MustRun(req)
	if r2.Cycles != r.Cycles {
		t.Fatal("cache returned different result")
	}
}

func TestUnlimitedMemoryNeverEvicts(t *testing.T) {
	r := apiSess.MustRun(Request{Benchmark: "HOT", Setup: SetupBaseline, Oversubscription: 0})
	if r.EvictedPages != 0 {
		t.Fatalf("evictions with unlimited memory: %d", r.EvictedPages)
	}
	if r.CapacityPages != 0 {
		t.Fatalf("capacity = %d, want 0 (unlimited)", r.CapacityPages)
	}
}

func TestMustRunPanicsOnBadRequest(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustRun did not panic")
		}
	}()
	apiSess.MustRun(Request{Benchmark: "NOPE", Setup: SetupCPPE})
}

func TestExperimentUnknown(t *testing.T) {
	if _, err := apiSess.Experiment("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentStaticTables(t *testing.T) {
	out, err := apiSess.Experiment(ExpTable1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"28 SMs", "20", "GDDR5", "Page Table Walker"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
	out, err = apiSess.Experiment(ExpTable2)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hotspot", "HYB", "Thrashing"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q", want)
		}
	}
}

func TestExperimentFig3EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	out, err := apiSess.Experiment(ExpFig3)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"SRD", "B+T", "GeoMean", "Random"} {
		if !strings.Contains(out, want) {
			t.Errorf("Fig 3 missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentsListMatchesDispatch(t *testing.T) {
	// Every Exp* constant names a row of the experiment table, and the table
	// has no other rows.
	known := map[string]bool{}
	for _, id := range Experiments() {
		known[id] = true
	}
	if len(known) != 22 {
		t.Fatalf("experiments = %d", len(known))
	}
	for _, id := range []string{
		ExpTable1, ExpTable2, ExpFig3, ExpFig4, ExpTable3, ExpTable4,
		ExpSweepT3, ExpFig7, ExpFig8, ExpFig9a, ExpFig9b, ExpFig10,
		ExpOverhead, ExpAblHPE, ExpAblTree, ExpAblMHPE, ExpAblTrueLRU,
		ExpSweepRate, ExpBreakdown, ExpClaims, ExpRobustness, ExpFig8Learned,
	} {
		if !known[id] {
			t.Errorf("missing id %q", id)
		}
	}
}

func TestCachedRunsGrows(t *testing.T) {
	s := NewSession(Options{Scale: 0.05, Warps: 16})
	if s.CachedRuns() != 0 {
		t.Fatal("fresh session has cached runs")
	}
	s.MustRun(Request{Benchmark: "STN", Setup: SetupBaseline, Oversubscription: 50})
	if s.CachedRuns() != 1 {
		t.Fatalf("cached = %d", s.CachedRuns())
	}
}

// fifoPolicy is an eviction policy written the way a plugin outside this
// module writes one: only the exported aliases, no access to the simulator's
// internals. It evicts resident chunks in migration order.
type fifoPolicy struct {
	order    []ChunkID
	resident map[ChunkID]bool
}

func (p *fifoPolicy) Name() string               { return "fifo-plugin" }
func (p *fifoPolicy) OnFault(ChunkID)            {}
func (p *fifoPolicy) OnTouch(ChunkID, int)       {}
func (p *fifoPolicy) OnEvicted(c ChunkID, _ int) { delete(p.resident, c) }
func (p *fifoPolicy) OnMigrate(c ChunkID, _ PageBitmap) {
	if !p.resident[c] {
		p.resident[c] = true
		p.order = append(p.order, c)
	}
}

func (p *fifoPolicy) SelectVictim(excluded func(ChunkID) bool) (ChunkID, bool) {
	kept := p.order[:0]
	for _, c := range p.order {
		if p.resident[c] {
			kept = append(kept, c)
		}
	}
	p.order = kept
	for _, c := range p.order {
		if !excluded(c) {
			return c, true
		}
	}
	return 0, false
}

// TestRegisteredPolicyCheckpoints runs a policy registered through
// RegisterPolicy through RunResumableProgress with a run record path, parks
// it at a mid-run epoch boundary, and calls it again: the second call runs
// from cycle 0 with a fresh instance from the factory and must render the
// plain Run's Result JSON. Being parked and continued asks nothing of a
// policy beyond a deterministic factory.
func TestRegisteredPolicyCheckpoints(t *testing.T) {
	err := RegisterPolicy(PolicyRegistration{
		Name: "fifo-plugin", Version: PolicyAPIVersion, Kind: KindEviction,
		Description: "test plugin: evict in migration order",
		NewEviction: func(PolicyEnv) (EvictionPolicy, error) {
			return &fifoPolicy{resident: map[ChunkID]bool{}}, nil
		},
	})
	if err != nil && !errors.Is(err, ErrPolicyExists) {
		t.Fatal(err)
	}
	opts := Options{Scale: 0.05, Warps: 32}
	req := Request{Benchmark: "SRD", Setup: "fifo-plugin+locality", Oversubscription: 50}
	want, err := NewSession(opts).Run(req)
	if err != nil || want.Err != nil || want.EvictedPages == 0 {
		t.Fatalf("plain run: %v / %+v (the policy must evict)", err, want)
	}

	path := filepath.Join(t.TempDir(), "plugin.ckpt")
	every := want.Cycles / 4
	parks := 0
	_, err = NewSession(opts).RunResumableProgress(req, path, every, func() bool {
		parks++
		return parks >= 2
	}, nil)
	if !errors.Is(err, ErrParked) {
		t.Fatalf("first call: err = %v, want ErrParked", err)
	}
	got, err := NewSession(opts).RunResumableProgress(req, path, every, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, gerr := ResultJSON(got)
	w, werr := ResultJSON(want)
	if gerr != nil || werr != nil {
		t.Fatal(gerr, werr)
	}
	if string(g) != string(w) {
		t.Errorf("parked and continued run differs:\n got %s\nwant %s", g, w)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("run record left behind (err=%v)", err)
	}
}
