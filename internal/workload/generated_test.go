package workload

import (
	"sync"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

func TestCacheMemoizesByKey(t *testing.T) {
	c := NewCache()
	srd, _ := ByAbbr("SRD")
	hsd, _ := ByAbbr("HSD")
	opt := Options{Scale: 0.05, Warps: 8}

	a := c.Get(srd, opt)
	if b := c.Get(srd, opt); b != a {
		t.Error("same key returned a distinct generation")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}

	// Any knob change is a different generation.
	variants := []Options{
		{Scale: 0.1, Warps: 8},
		{Scale: 0.05, Warps: 16},
		{Scale: 0.05, Warps: 8, AccessesPerPage: 4},
		{Scale: 0.05, Warps: 8, Seed: 1},
	}
	for _, v := range variants {
		if c.Get(srd, v) == a {
			t.Errorf("options %+v shared the base generation", v)
		}
	}
	if c.Get(hsd, opt) == a {
		t.Error("different benchmark shared the generation")
	}
	if want := 2 + len(variants); c.Len() != want {
		t.Errorf("Len = %d, want %d", c.Len(), want)
	}
}

func TestCacheFingerprintMatchesDirectHash(t *testing.T) {
	c := NewCache()
	b, _ := ByAbbr("SRD")
	opt := Options{Scale: 0.05, Warps: 8}
	g := c.Get(b, opt)
	if g.Fingerprint() == 0 {
		t.Fatal("zero fingerprint")
	}
	if got := Fingerprint(g.Warps); got != g.Fingerprint() {
		t.Errorf("memoized fingerprint %#x != direct hash %#x", g.Fingerprint(), got)
	}
	// Equal keys in a fresh cache regenerate the identical trace.
	if g2 := NewCache().Get(b, opt); g2.Fingerprint() != g.Fingerprint() {
		t.Errorf("regeneration drifted: %#x vs %#x", g2.Fingerprint(), g.Fingerprint())
	}
}

func TestCacheConcurrentGetSharesOneGeneration(t *testing.T) {
	c := NewCache()
	b, _ := ByAbbr("HSD")
	opt := Options{Scale: 0.05, Warps: 8}
	const n = 16
	got := make([]*Generated, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = c.Get(b, opt)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if got[i] != got[0] {
			t.Fatalf("racer %d got a distinct generation", i)
		}
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	tr := pack([][]memdef.Access{
		{{Addr: 0x1000, Kind: memdef.Read}, {Addr: 0x2000, Kind: memdef.Write}},
		{{Addr: 0x3000, Kind: memdef.Read}},
	})
	base := Fingerprint(tr)

	addr := pack([][]memdef.Access{
		{{Addr: 0x1001, Kind: memdef.Read}, {Addr: 0x2000, Kind: memdef.Write}},
		{{Addr: 0x3000, Kind: memdef.Read}},
	})
	kind := pack([][]memdef.Access{
		{{Addr: 0x1000, Kind: memdef.Write}, {Addr: 0x2000, Kind: memdef.Write}},
		{{Addr: 0x3000, Kind: memdef.Read}},
	})
	// Same flat access stream, different warp boundary.
	split := pack([][]memdef.Access{
		{{Addr: 0x1000, Kind: memdef.Read}},
		{{Addr: 0x2000, Kind: memdef.Write}, {Addr: 0x3000, Kind: memdef.Read}},
	})
	for name, v := range map[string][][]memdef.Op{"addr": addr, "kind": kind, "warp-boundary": split} {
		if Fingerprint(v) == base {
			t.Errorf("%s change not reflected in fingerprint", name)
		}
	}
	if Fingerprint(tr) != base {
		t.Error("fingerprint not stable across calls")
	}
}

// pack converts per-warp access literals to the packed form traces store.
func pack(warps [][]memdef.Access) [][]memdef.Op {
	out := make([][]memdef.Op, len(warps))
	for w, accs := range warps {
		for _, a := range accs {
			out[w] = append(out[w], memdef.PackAccess(a))
		}
	}
	return out
}
