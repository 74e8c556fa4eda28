// The contract tests for the evaluation's named setups: each name resolves,
// through the setup table in setups.go, to the registry pair and the MHPE
// options the paper's experiments expect. The policies themselves live in
// internal/policy.

package harness_test

import (
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/harness"
	"github.com/reproductions/cppe/internal/memdef"
)

// resolve returns the named setup the front-ends accept under name.
func resolve(t *testing.T, name string) harness.Setup {
	t.Helper()
	su, err := harness.NewSession(harness.Config{}).ResolveSetup(name)
	if err != nil {
		t.Fatalf("ResolveSetup(%q): %v", name, err)
	}
	return su
}

// mustPolicy unwraps a Setup policy constructor in tests.
func mustPolicy(t *testing.T, s harness.Setup, cfg memdef.Config, seed int64) evict.Policy {
	t.Helper()
	p, err := s.NewPolicy(cfg, seed)
	if err != nil {
		t.Fatalf("%s: NewPolicy: %v", s.Name, err)
	}
	return p
}

func drive(p evict.Policy, chunks int) {
	for i := 0; i < chunks; i++ {
		p.OnMigrate(memdef.ChunkID(i), memdef.FullBitmap)
	}
	p.SelectVictim(func(memdef.ChunkID) bool { return false })
}

func TestSetupCPPEIntervalOverride(t *testing.T) {
	cfg := memdef.DefaultConfig()
	// Interval 32 pages = 2 chunk migrations per interval: after 8 chunks
	// the policy has seen 4 intervals (vs 2 at the default 64).
	pol := mustPolicy(t, resolve(t, "cppe-int-32"), cfg, 0).(*evict.MHPE)
	drive(pol, 12)
	// Interval count is internal; verify via partitioning: with interval 32
	// the old partition after 12 migrations is larger than with 128.
	pol128 := mustPolicy(t, resolve(t, "cppe-int-128"), cfg, 0).(*evict.MHPE)
	drive(pol128, 12)
	v32, _ := pol.SelectVictim(func(memdef.ChunkID) bool { return false })
	v128, ok := pol128.SelectVictim(func(memdef.ChunkID) bool { return false })
	if !ok {
		t.Fatal("no victim at interval 128")
	}
	if v32 == v128 {
		t.Logf("victims coincide (%v); acceptable but interval must differ internally", v32)
	}
}

func TestSetupCPPEBufferOverride(t *testing.T) {
	cfg := memdef.DefaultConfig()
	pol := mustPolicy(t, resolve(t, "cppe-buf-128"), cfg, 0).(*evict.MHPE)
	drive(pol, 64) // scaled rule would give max(8, 8*64/64) = 8
	if got := pol.Stats().BufferCap; got != 128 {
		t.Fatalf("buffer cap = %d, want 128", got)
	}
}

func TestSetupCPPEFwdOverride(t *testing.T) {
	cfg := memdef.DefaultConfig()
	pol := mustPolicy(t, resolve(t, "cppe-fwd-8"), cfg, 0).(*evict.MHPE)
	drive(pol, 300) // chainLen/100 rule would give 3
	if got := pol.ForwardDistance(); got != 8 {
		t.Fatalf("forward = %d, want 8", got)
	}
}

func TestSetupTrueLRUConstructs(t *testing.T) {
	cfg := memdef.DefaultConfig()
	su := resolve(t, "true-lru")
	pol := mustPolicy(t, su, cfg, 0)
	if pol.Name() != "true-lru" {
		t.Fatalf("name = %q", pol.Name())
	}
	pf, err := su.NewPrefetcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pf.Name() != "locality" {
		t.Fatal("true-lru must pair with the locality prefetcher")
	}
}

func TestVariantSetupNames(t *testing.T) {
	for name, want := range map[string]harness.Setup{
		"cppe-int-32": {Name: "cppe-int-32", Eviction: "mhpe-int-32", Prefetch: "pattern-s2"},
		"cppe-buf-8":  {Name: "cppe-buf-8", Eviction: "mhpe-buf-8", Prefetch: "pattern-s2"},
		"cppe-fwd-2":  {Name: "cppe-fwd-2", Eviction: "mhpe-fwd-2", Prefetch: "pattern-s2"},
	} {
		if got := resolve(t, name); got != want {
			t.Errorf("%s resolves to %+v, want %+v", name, got, want)
		}
	}
}

func TestSetupsConstructDistinctInstances(t *testing.T) {
	cfg := memdef.DefaultConfig()
	names := map[string]bool{}
	for _, name := range harness.SetupNames() {
		s := resolve(t, name)
		if s.Name == "" || names[s.Name] {
			t.Fatalf("bad/duplicate setup name %q", s.Name)
		}
		names[s.Name] = true
		p1, err1 := s.NewPolicy(cfg, 1)
		p2, err2 := s.NewPolicy(cfg, 1)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: policy error: %v %v", s.Name, err1, err2)
		}
		if p1 == nil || p2 == nil {
			t.Fatalf("%s: nil policy", s.Name)
		}
		if p1 == p2 {
			t.Fatalf("%s: policy factory returned shared instance", s.Name)
		}
		pf, err := s.NewPrefetcher(cfg)
		if err != nil {
			t.Fatalf("%s: prefetcher error: %v", s.Name, err)
		}
		if pf == nil {
			t.Fatalf("%s: nil prefetcher", s.Name)
		}
	}
}

func TestSetupNames(t *testing.T) {
	names := harness.SetupNames()
	if len(names) < 2 || names[0] != "baseline" || names[1] != "cppe" {
		t.Fatalf("canonical names changed: %v", names)
	}
	if got := resolve(t, "lru-20%"); got.Eviction != "lru-20%" || got.Prefetch != "locality" {
		t.Fatalf("reserved setup = %+v", got)
	}
	if got := resolve(t, "cppe-t3-24"); got.Eviction != "mhpe-t3-24" || got.Prefetch != "pattern-s2" {
		t.Fatalf("t3 setup = %+v", got)
	}
}

func TestProbeSetupFrozenAtMRU(t *testing.T) {
	cfg := memdef.DefaultConfig()
	pol := mustPolicy(t, resolve(t, "mhpe-probe"), cfg, 0).(*evict.MHPE)
	for i := 0; i < 12; i++ {
		pol.OnMigrate(memdef.ChunkID(i), memdef.FullBitmap)
	}
	pol.SelectVictim(func(memdef.ChunkID) bool { return false })
	for i := 0; i < 4; i++ {
		pol.OnEvicted(memdef.ChunkID(100+i), 15)
	}
	for i := 0; i < 4; i++ {
		pol.OnMigrate(memdef.ChunkID(200+i), memdef.FullBitmap)
	}
	if pol.Strategy() != evict.StrategyMRU {
		t.Fatal("probe setup switched to LRU")
	}
}
