package workload

import (
	"sync"

	"github.com/reproductions/cppe/internal/memdef"
)

// Generated is one immutable generated trace plus its fingerprint. A sweep
// fans a single Generated out to every machine instance of the same workload:
// the warp slices are shared zero-copy, so the consumers' contract is strictly
// read-only (package sm only ever reads trace entries). The fingerprint is
// computed at most once, on first use: only job IDs and run records read the
// trace's identity, so a plain run never hashes its trace.
type Generated struct {
	Trace
	fpOnce sync.Once
	fp     uint64
}

// Fingerprint returns Fingerprint(g.Warps), computing it on first use.
func (g *Generated) Fingerprint() uint64 {
	g.fpOnce.Do(func() { g.fp = Fingerprint(g.Warps) })
	return g.fp
}

// GenKey identifies one deterministic generation: the benchmark plus every
// Options knob that shapes its trace. Two generations with equal keys produce
// byte-identical traces, so a Generated may be shared across any simulations
// whose keys match.
type GenKey struct {
	Abbr            string
	Scale           float64
	Warps           int
	AccessesPerPage int
	Seed            int64
}

// Cache memoizes generated traces by GenKey. Generation runs at most once per
// key (concurrent requesters for the same key block on the first generation
// instead of duplicating it); the returned *Generated is shared and must not
// be mutated.
type Cache struct {
	mu sync.Mutex
	m  map[GenKey]*cacheEntry
}

type cacheEntry struct {
	once sync.Once
	g    *Generated
}

// NewCache returns an empty trace cache.
func NewCache() *Cache {
	return &Cache{m: make(map[GenKey]*cacheEntry)}
}

// Key returns the memoization key for generating b under opt (with option
// defaults applied, so equal effective generations share an entry).
func (b Benchmark) Key(opt Options) GenKey {
	opt = opt.withDefaults()
	return GenKey{
		Abbr:            b.Abbr,
		Scale:           opt.Scale,
		Warps:           opt.Warps,
		AccessesPerPage: opt.AccessesPerPage,
		Seed:            opt.Seed,
	}
}

// Get returns the memoized generation of b under opt, generating it on first
// use.
func (c *Cache) Get(b Benchmark, opt Options) *Generated {
	k := b.Key(opt)
	c.mu.Lock()
	e, ok := c.m[k]
	if !ok {
		e = &cacheEntry{}
		c.m[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.g = &Generated{Trace: b.Generate(opt)}
	})
	return e.g
}

// Len returns the number of memoized generations.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Fingerprint hashes warp traces (FNV-1a over addresses, kinds, and warp
// boundaries). It is the workload identity that job IDs hash and run records
// pin, so two traces that differ in any access give different IDs even when
// every scalar session knob matches. The algorithm (and therefore every
// stored job ID) is unchanged from the harness's original per-build
// fingerprint.
func Fingerprint(traces [][]memdef.Op) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	for _, tr := range traces {
		mix(uint64(len(tr)))
		for _, op := range tr {
			a := op.Access()
			mix(uint64(a.Addr))
			mix(uint64(a.Kind))
		}
	}
	return h
}
