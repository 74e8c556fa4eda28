package harness

import (
	"fmt"
	"strings"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
)

// Setup names one (eviction policy, prefetcher) pair of registry names: a
// system the evaluation compares. Construction errors flow to the run's
// Result.Err instead of aborting a whole sweep.
type Setup struct {
	Name     string
	Eviction string
	Prefetch string
}

// NewPolicy constructs a fresh eviction policy for a machine with cfg. The
// seed is the run's deterministic seed (only stochastic policies read it).
func (su Setup) NewPolicy(cfg memdef.Config, seed int64) (evict.Policy, error) {
	return policy.NewEviction(su.Eviction, policy.Env{Config: cfg, Seed: seed})
}

// NewPrefetcher constructs a fresh prefetcher for a machine with cfg.
func (su Setup) NewPrefetcher(cfg memdef.Config) (prefetch.Prefetcher, error) {
	return policy.NewPrefetch(su.Prefetch, policy.Env{Config: cfg})
}

// setups are the evaluation's named setups, in listing order. Each is an
// alias of a registry pair; the cppe-* variants pair an MHPE variant with
// the paper's Scheme-2 pattern prefetcher.
var setups = []Setup{
	{"baseline", "lru", "locality"},               // software baseline, Ganguly et al. [16]
	{"cppe", "mhpe", "pattern-s2"},                // this paper
	{"cppe-s1", "mhpe", "pattern-s1"},             // deletion Scheme-1 (Fig. 7)
	{"random", "random", "locality"},              // Fig. 3/9
	{"lru-10%", "lru-10%", "locality"},            // Fig. 3/9
	{"lru-20%", "lru-20%", "locality"},            // Fig. 3/9
	{"disable-on-full", "lru", "disable-on-full"}, // Fig. 10
	{"hpe", "hpe", "locality"},                    // Inefficiency-1 ablation
	{"tree", "lru", "tree"},                       // neighborhood-prefetch ablation
	{"learned", "learned", "pattern-s2"},          // perceptron eviction
	{"true-lru", "true-lru", "locality"},          // driver-visibility ablation
	{"mhpe-probe", "mhpe-probe", "locality"},      // Tables III/IV
	{"cppe-t3-16", "mhpe-t3-16", "pattern-s2"},    // Section VI-A T3 sweep
	{"cppe-t3-20", "mhpe-t3-20", "pattern-s2"},
	{"cppe-t3-24", "mhpe-t3-24", "pattern-s2"},
	{"cppe-t3-28", "mhpe-t3-28", "pattern-s2"},
	{"cppe-t3-32", "mhpe-t3-32", "pattern-s2"},
	{"cppe-t3-36", "mhpe-t3-36", "pattern-s2"},
	{"cppe-t3-40", "mhpe-t3-40", "pattern-s2"},
	{"cppe-int-32", "mhpe-int-32", "pattern-s2"}, // MHPE design ablations
	{"cppe-int-128", "mhpe-int-128", "pattern-s2"},
	{"cppe-buf-8", "mhpe-buf-8", "pattern-s2"},
	{"cppe-buf-128", "mhpe-buf-128", "pattern-s2"},
	{"cppe-fwd-2", "mhpe-fwd-2", "pattern-s2"},
	{"cppe-fwd-8", "mhpe-fwd-8", "pattern-s2"},
}

// SetupNames returns the names of the named setups, in listing order.
func SetupNames() []string {
	names := make([]string, len(setups))
	for i, su := range setups {
		names[i] = su.Name
	}
	return names
}

// ResolveSetup returns the setup for name: a named setup, or an
// "evict+prefetch" pair of registry names ("mhpe+locality", "learned+tree",
// ...), so every registered policy combination is addressable from the
// front-ends. An unknown half returns policy.ErrUnknownPolicy; a name that
// is neither returns ErrUnknownKey. Both are typed, so callers (and
// Result.Err consumers) can classify with errors.Is.
func (s *Session) ResolveSetup(name string) (Setup, error) {
	for _, su := range setups {
		if su.Name == name {
			return su, nil
		}
	}
	ev, pf, ok := strings.Cut(name, "+")
	if !ok {
		return Setup{}, fmt.Errorf("%w: setup %q", ErrUnknownKey, name)
	}
	if _, err := policy.Lookup(policy.KindEviction, ev); err != nil {
		return Setup{}, fmt.Errorf("harness: setup %q: %w", name, err)
	}
	if _, err := policy.Lookup(policy.KindPrefetch, pf); err != nil {
		return Setup{}, fmt.Errorf("harness: setup %q: %w", name, err)
	}
	return Setup{Name: name, Eviction: ev, Prefetch: pf}, nil
}
