package evict

import (
	"github.com/reproductions/cppe/internal/memdef"
)

// rng64 is a splitmix64 generator: a single uint64 of state, seeded from the
// policy's Env, so a rebuilt policy replays the same stream. Splitmix64
// passes BigCrush and is the standard seeding primitive of the xoshiro
// family; uniform victim sampling needs nothing stronger.
type rng64 struct {
	s uint64
}

// next advances the state and returns the next 64-bit output.
func (r *rng64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). The modulo bias is below 2^-50 for the
// chain lengths a simulation can reach — far beneath the sampling noise of
// the experiments.
func (r *rng64) Intn(n int) int {
	return int(r.next() % uint64(n))
}

// Random evicts a uniformly random resident chunk. Zheng et al. [9] evaluated
// it as a thrash-resistant alternative to LRU; the paper uses it in Fig. 3
// and Fig. 9 coupled with the locality prefetcher.
type Random struct {
	rng   rng64
	ids   []memdef.ChunkID
	where map[memdef.ChunkID]int
}

// NewRandom returns a Random policy with a deterministic seed.
func NewRandom(seed int64) *Random {
	return &Random{
		rng:   rng64{s: uint64(seed)},
		where: make(map[memdef.ChunkID]int),
	}
}

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// OnFault is ignored: Random keeps no recency state.
func (r *Random) OnFault(c memdef.ChunkID) {}

// OnMigrate registers the chunk if it is new.
func (r *Random) OnMigrate(c memdef.ChunkID, pages memdef.PageBitmap) {
	if _, ok := r.where[c]; ok {
		return
	}
	r.where[c] = len(r.ids)
	r.ids = append(r.ids, c)
}

// OnTouch is ignored.
func (r *Random) OnTouch(c memdef.ChunkID, pageIdx int) {}

// SelectVictim picks uniformly among non-excluded chunks. It samples up to a
// bounded number of times, then falls back to a linear scan from a random
// starting point so that heavily excluded states still terminate.
func (r *Random) SelectVictim(excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	n := len(r.ids)
	if n == 0 {
		return 0, false
	}
	for attempt := 0; attempt < 8; attempt++ {
		c := r.ids[r.rng.Intn(n)]
		if !excluded(c) {
			return c, true
		}
	}
	start := r.rng.Intn(n)
	for i := 0; i < n; i++ {
		c := r.ids[(start+i)%n]
		if !excluded(c) {
			return c, true
		}
	}
	return 0, false
}

// OnEvicted forgets the chunk (swap-remove keeps selection O(1)).
func (r *Random) OnEvicted(c memdef.ChunkID, untouch int) {
	i, ok := r.where[c]
	if !ok {
		return
	}
	last := len(r.ids) - 1
	r.ids[i] = r.ids[last]
	r.where[r.ids[i]] = i
	r.ids = r.ids[:last]
	delete(r.where, c)
}

// ChainLen exposes the tracked-chunk count.
func (r *Random) ChainLen() int { return len(r.ids) }

// TrackedChunks implements the audit enumeration (see Tracked).
func (r *Random) TrackedChunks() []memdef.ChunkID {
	out := make([]memdef.ChunkID, len(r.ids))
	copy(out, r.ids)
	return out
}
