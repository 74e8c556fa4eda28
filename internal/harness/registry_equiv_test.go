package harness

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
)

// registerTestPolicy adds a test-only policy to the global registry. The
// registry outlives one test, so a rerun (-count) finds it already there.
func registerTestPolicy(t *testing.T, reg policy.Registration) {
	t.Helper()
	reg.Version = policy.APIVersion
	if err := policy.Register(reg); err != nil && !errors.Is(err, policy.ErrPolicyExists) {
		t.Fatal(err)
	}
}

// mhpeDirect builds MHPE from the configuration's Algorithm-1 parameters
// with override applied, constructing the policy directly.
func mhpeDirect(override func(*evict.MHPEOptions)) policy.EvictionFactory {
	return func(env policy.Env) (evict.Policy, error) {
		cfg := env.Config
		o := evict.MHPEOptions{T1: cfg.T1, T2: cfg.T2, T3: cfg.T3, IntervalPages: cfg.IntervalPages}
		override(&o)
		return evict.NewMHPE(o), nil
	}
}

// directPair constructs one setup's policies directly, without the registry.
type directPair struct {
	evict    policy.EvictionFactory
	prefetch policy.PrefetchFactory
}

// directSetups replicates the pre-registry setup wiring: for each named setup,
// the eviction policy and prefetcher constructed directly, exactly as the
// setups built them before they resolved through the policy registry. The
// equivalence test pins that registry resolution is a pure indirection with
// byte-identical results.
func directSetups() map[string]directPair {
	locality := func(policy.Env) (prefetch.Prefetcher, error) { return prefetch.NewLocality(), nil }
	pattern := func(env policy.Env) (prefetch.Prefetcher, error) {
		return prefetch.NewPattern(prefetch.Scheme2, env.Config.PatternMinUntouch)
	}
	lru := func(policy.Env) (evict.Policy, error) { return evict.NewLRU(), nil }
	out := map[string]directPair{
		"baseline": {lru, locality},
		"cppe":     {mhpeDirect(func(*evict.MHPEOptions) {}), pattern},
		"random": {func(env policy.Env) (evict.Policy, error) {
			return evict.NewRandom(env.Seed), nil
		}, locality},
		"lru-10%": {func(policy.Env) (evict.Policy, error) {
			return evict.NewReservedLRU(0.10), nil
		}, locality},
		"hpe": {func(env policy.Env) (evict.Policy, error) {
			return evict.NewHPE(evict.HPEOptions{IntervalPages: env.Config.IntervalPages}), nil
		}, locality},
		"tree": {lru, func(policy.Env) (prefetch.Prefetcher, error) {
			return prefetch.NewTree(), nil
		}},
		"mhpe-probe": {mhpeDirect(func(o *evict.MHPEOptions) { o.DisableSwitch = true }), locality},
	}
	for t3 := 16; t3 <= 40; t3 += 4 {
		out[fmt.Sprintf("cppe-t3-%d", t3)] = directPair{mhpeDirect(func(o *evict.MHPEOptions) { o.T3 = t3 }), pattern}
	}
	for _, n := range []int{32, 128} {
		out[fmt.Sprintf("cppe-int-%d", n)] = directPair{mhpeDirect(func(o *evict.MHPEOptions) { o.IntervalPages = n }), pattern}
	}
	for _, n := range []int{8, 128} {
		out[fmt.Sprintf("cppe-buf-%d", n)] = directPair{mhpeDirect(func(o *evict.MHPEOptions) { o.FixedBufferCap = n }), pattern}
	}
	for _, n := range []int{2, 8} {
		out[fmt.Sprintf("cppe-fwd-%d", n)] = directPair{mhpeDirect(func(o *evict.MHPEOptions) { o.InitialForwardDistance = n }), pattern}
	}
	return out
}

// TestRegistryGoldenEquivalence runs each key under its named setup and under
// a test-only registry pair that constructs the same policies directly, and
// requires identical results — cycles, statistics, and the full rendered
// instrumentation report.
func TestRegistryGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	keys := []Key{
		// fig3 rows: SRD across the prior-eviction setups.
		{"SRD", "baseline", 75}, {"SRD", "random", 75}, {"SRD", "lru-10%", 75},
		// fig8 rows: baseline vs cppe at both rates.
		{"HSD", "baseline", 50}, {"HSD", "cppe", 50},
		{"MRQ", "cppe", 75},
		// ablations through the registry.
		{"STN", "hpe", 75}, {"STN", "tree", 75},
	}
	// every MHPE variant.
	for _, name := range variantSetups {
		keys = append(keys, Key{"HSD", name, 50})
	}
	direct := directSetups()
	s := NewSession(Config{Scale: 0.05, Warps: 32, Parallelism: 4})
	for _, k := range keys {
		d, ok := direct[k.Setup]
		if !ok {
			t.Fatalf("%v: no direct construction", k)
		}
		name := "test-direct-" + k.Setup
		registerTestPolicy(t, policy.Registration{Name: name, Kind: policy.KindEviction, NewEviction: d.evict})
		registerTestPolicy(t, policy.Registration{Name: name, Kind: policy.KindPrefetch, NewPrefetch: d.prefetch})
		dk := k
		dk.Setup = name + "+" + name
		a, b := s.Run(k), s.Run(dk)
		if a.Err != nil || b.Err != nil {
			t.Fatalf("%v: errors: registry=%v direct=%v", k, a.Err, b.Err)
		}
		if a.Cycles != b.Cycles || a.Accesses != b.Accesses || a.Crashed != b.Crashed {
			t.Errorf("%v: registry (cycles=%d acc=%d) != direct (cycles=%d acc=%d)",
				k, a.Cycles, a.Accesses, b.Cycles, b.Accesses)
			continue
		}
		if a.UVM != b.UVM {
			t.Errorf("%v: UVM stats diverge:\nregistry: %+v\ndirect:   %+v", k, a.UVM, b.UVM)
		}
		// The rendered report covers the policy trajectory and breakdown
		// tables — any internal-state drift shows up here. Its first line
		// names the key, which differs by construction.
		_, ra, _ := strings.Cut(s.Describe(k), "\n")
		_, rb, _ := strings.Cut(s.Describe(dk), "\n")
		if ra != rb {
			t.Errorf("%v: Describe output diverges:\n--- registry ---\n%s\n--- direct ---\n%s", k, ra, rb)
		}
	}
}
