package policy

import (
	"testing"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
)

// fuzzEnv is the construction environment for fuzz-driven policies.
func fuzzEnv() Env { return Env{Config: memdef.DefaultConfig(), Seed: 1} }

// FuzzSelectVictim feeds every registered eviction policy a driver-plausible
// event stream decoded from fuzz bytes. No input may panic; SelectVictim must
// return a non-excluded resident chunk or decline. Run with
// `go test -fuzz FuzzSelectVictim ./internal/policy`.
func FuzzSelectVictim(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 100, 50, 25})
	f.Add([]byte{0, 0, 0, 0, 3, 3, 3, 3, 7, 7})
	f.Add([]byte{255, 254, 253, 4, 8, 15, 16, 23, 42})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, name := range EvictionNames() {
			pol, err := NewEviction(name, fuzzEnv())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			driveFuzz(t, name, pol, data)
		}
	})
}

// driveFuzz replays one fuzz-decoded event stream against one policy.
func driveFuzz(t *testing.T, name string, pol evict.Policy, data []byte) {
	resident := make([]bool, 256)
	nResident := 0
	next := memdef.ChunkID(0)
	for _, b := range data {
		switch b % 4 {
		case 0: // migrate a fresh chunk
			if int(next) >= len(resident) {
				continue
			}
			pol.OnFault(next)
			pol.OnMigrate(next, memdef.PageBitmap(b)|1)
			resident[next] = true
			nResident++
			next++
		case 1: // touch
			pol.OnTouch(memdef.ChunkID(b), int(b)%memdef.ChunkPages)
		case 2: // refault an arbitrary chunk
			pol.OnFault(memdef.ChunkID(b) % (next + 1))
		case 3: // evict, sometimes with an exclusion
			if nResident == 0 {
				continue
			}
			ex := memdef.ChunkID(b) % (next + 1)
			excluded := func(c memdef.ChunkID) bool { return b%8 < 4 && c == ex }
			v, ok := pol.SelectVictim(excluded)
			if !ok {
				// Policies may decline under exclusions (e.g. the excluded
				// chunk is the only viable candidate); declining is never a
				// contract violation here, picking an excluded chunk is.
				continue
			}
			if excluded(v) {
				t.Fatalf("%s: victim %v is excluded", name, v)
			}
			if int(v) >= len(resident) || !resident[v] {
				t.Fatalf("%s: victim %v not resident", name, v)
			}
			pol.OnEvicted(v, int(b)%17)
			resident[v] = false
			nResident--
		}
	}
	if tr, ok := pol.(evict.Tracked); ok {
		want := 0
		for _, r := range resident {
			if r {
				want++
			}
		}
		if got := len(tr.TrackedChunks()); got != want {
			t.Fatalf("%s: tracks %d chunks, %d resident", name, got, want)
		}
	}
}
