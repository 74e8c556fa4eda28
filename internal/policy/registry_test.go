package policy

import (
	"errors"
	"sort"
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
)

func dummyEviction(Env) (evict.Policy, error)        { return evict.NewLRU(), nil }
func dummyPrefetch(Env) (prefetch.Prefetcher, error) { return prefetch.NewNone(), nil }

// TestRegisterErrors is the typed-error table: every way a registration can
// fail, classified with errors.Is — never a panic.
func TestRegisterErrors(t *testing.T) {
	cases := []struct {
		name string
		reg  Registration
		want error
	}{
		{
			name: "empty name",
			reg:  Registration{Version: APIVersion, Kind: KindEviction, NewEviction: dummyEviction},
			want: ErrBadRegistration,
		},
		{
			name: "wrong version",
			reg: Registration{Name: "t-wrong-version", Version: APIVersion + 1,
				Kind: KindEviction, NewEviction: dummyEviction},
			want: ErrBadRegistration,
		},
		{
			name: "zero version",
			reg:  Registration{Name: "t-zero-version", Kind: KindEviction, NewEviction: dummyEviction},
			want: ErrBadRegistration,
		},
		{
			name: "missing kind",
			reg:  Registration{Name: "t-no-kind", Version: APIVersion, NewEviction: dummyEviction},
			want: ErrBadRegistration,
		},
		{
			name: "eviction without factory",
			reg:  Registration{Name: "t-no-factory", Version: APIVersion, Kind: KindEviction},
			want: ErrBadRegistration,
		},
		{
			name: "eviction with prefetch factory",
			reg: Registration{Name: "t-cross-factory", Version: APIVersion, Kind: KindEviction,
				NewEviction: dummyEviction, NewPrefetch: dummyPrefetch},
			want: ErrBadRegistration,
		},
		{
			name: "prefetch with eviction factory",
			reg: Registration{Name: "t-cross-factory-2", Version: APIVersion, Kind: KindPrefetch,
				NewEviction: dummyEviction},
			want: ErrBadRegistration,
		},
		{
			name: "duplicate of builtin",
			reg: Registration{Name: "lru", Version: APIVersion, Kind: KindEviction,
				NewEviction: dummyEviction},
			want: ErrPolicyExists,
		},
		{
			name: "duplicate prefetch builtin",
			reg: Registration{Name: "locality", Version: APIVersion, Kind: KindPrefetch,
				NewPrefetch: dummyPrefetch},
			want: ErrPolicyExists,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Register(tc.reg)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Register = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

// TestLookupUnknown classifies unknown-name lookups as ErrUnknownPolicy for
// both kinds and both construction paths.
func TestLookupUnknown(t *testing.T) {
	env := Env{Config: memdef.DefaultConfig()}
	if _, err := Lookup(KindEviction, "no-such-policy"); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("Lookup eviction = %v, want ErrUnknownPolicy", err)
	}
	if _, err := Lookup(KindPrefetch, "no-such-prefetch"); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("Lookup prefetch = %v, want ErrUnknownPolicy", err)
	}
	if _, err := NewEviction("no-such-policy", env); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("NewEviction = %v, want ErrUnknownPolicy", err)
	}
	if _, err := NewPrefetch("no-such-prefetch", env); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("NewPrefetch = %v, want ErrUnknownPolicy", err)
	}
	// Kinds are separate namespaces: an eviction name is not a prefetcher.
	if _, err := Lookup(KindPrefetch, "mhpe"); !errors.Is(err, ErrUnknownPolicy) {
		t.Fatalf("Lookup(KindPrefetch, mhpe) = %v, want ErrUnknownPolicy", err)
	}
}

// TestBuiltinsRegistered pins the built-in policy names: every policy the
// evaluation uses must be addressable through the registry.
func TestBuiltinsRegistered(t *testing.T) {
	wantEv := []string{"hpe", "learned", "lru", "lru-10%", "lru-20%", "mhpe", "random", "true-lru",
		"mhpe-probe", "mhpe-t3-16", "mhpe-t3-20", "mhpe-t3-24", "mhpe-t3-28", "mhpe-t3-32", "mhpe-t3-36", "mhpe-t3-40",
		"mhpe-int-32", "mhpe-int-128", "mhpe-buf-8", "mhpe-buf-128", "mhpe-fwd-2", "mhpe-fwd-8"}
	wantPf := []string{"disable-on-full", "locality", "none", "pattern-s1", "pattern-s2", "tree"}
	gotEv := EvictionNames()
	gotPf := PrefetchNames()
	if !sort.StringsAreSorted(gotEv) || !sort.StringsAreSorted(gotPf) {
		t.Fatalf("name enumerations not sorted: %v %v", gotEv, gotPf)
	}
	for _, name := range wantEv {
		if _, err := Lookup(KindEviction, name); err != nil {
			t.Errorf("builtin eviction %q: %v", name, err)
		}
	}
	for _, name := range wantPf {
		if _, err := Lookup(KindPrefetch, name); err != nil {
			t.Errorf("builtin prefetcher %q: %v", name, err)
		}
	}
}

// TestMHPEVariantOverrides drives the MHPE variants whose override shows in
// an accessor: the probe never leaves MRU, and the fixed buffer and initial
// forward distance replace their chain-length-scaled rules. The harness's
// registry-equivalence test pins every variant against a direct build.
func TestMHPEVariantOverrides(t *testing.T) {
	build := func(name string, chunks int) *evict.MHPE {
		t.Helper()
		p, err := NewEviction(name, Env{Config: memdef.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		m := p.(*evict.MHPE)
		for i := 0; i < chunks; i++ {
			m.OnMigrate(memdef.ChunkID(i), memdef.FullBitmap)
		}
		m.SelectVictim(func(memdef.ChunkID) bool { return false })
		return m
	}
	if got := build("mhpe-buf-128", 64).Stats().BufferCap; got != 128 {
		t.Errorf("mhpe-buf-128: buffer cap = %d, want 128 (scaled rule: 8)", got)
	}
	if got := build("mhpe-fwd-8", 300).ForwardDistance(); got != 8 {
		t.Errorf("mhpe-fwd-8: forward distance = %d, want 8 (chainLen/100 rule: 3)", got)
	}
	probe := build("mhpe-probe", 12)
	for i := 0; i < 4; i++ {
		probe.OnEvicted(memdef.ChunkID(100+i), 15)
	}
	for i := 0; i < 4; i++ {
		probe.OnMigrate(memdef.ChunkID(200+i), memdef.FullBitmap)
	}
	if probe.Strategy() != evict.StrategyMRU {
		t.Error("mhpe-probe switched to LRU")
	}
}

// TestRegisterExternal registers a new policy and constructs it by name —
// the end-to-end path an external plugin takes.
func TestRegisterExternal(t *testing.T) {
	reg := Registration{
		Name: "test-external-lru", Version: APIVersion, Kind: KindEviction,
		Description: "test-only duplicate of LRU",
		NewEviction: dummyEviction,
	}
	if err := Register(reg); err != nil {
		t.Fatal(err)
	}
	pol, err := NewEviction("test-external-lru", Env{Config: memdef.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "lru" {
		t.Fatalf("constructed policy = %q", pol.Name())
	}
	if err := Register(reg); !errors.Is(err, ErrPolicyExists) {
		t.Fatalf("re-register = %v, want ErrPolicyExists", err)
	}
	got, err := Lookup(KindEviction, "test-external-lru")
	if err != nil {
		t.Fatal(err)
	}
	if got.Description != reg.Description {
		t.Fatalf("Description = %q", got.Description)
	}
}
