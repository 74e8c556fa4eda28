package policy

import (
	"fmt"
	"sort"
	"sync"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
)

// Kind says which contract a registration implements.
type Kind int

const (
	// KindEviction registers an eviction policy (evict.Policy).
	KindEviction Kind = iota + 1
	// KindPrefetch registers a prefetcher (prefetch.Prefetcher).
	KindPrefetch
)

func (k Kind) String() string {
	switch k {
	case KindEviction:
		return "eviction"
	case KindPrefetch:
		return "prefetch"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Env is the construction environment handed to a policy factory: the
// machine configuration and the run's deterministic seed. Factories must be
// pure — same Env, same policy — because the harness builds a fresh policy
// from the same Env for every run of a key, so a rerun (of a parked or
// interrupted job, say) reproduces the first run's decisions.
type Env struct {
	// Config is the Table-I system configuration of the machine the policy
	// will serve (policies read their tuning parameters from it: T1/T2/T3,
	// IntervalPages, PatternMinUntouch, ...).
	Config memdef.Config
	// Seed is the run's deterministic seed. Stochastic policies must derive
	// all randomness from it (splitmix64-style explicit state, never
	// math/rand globals) so decisions replay exactly.
	Seed int64
}

// EvictionFactory constructs a fresh eviction policy for one machine.
type EvictionFactory func(env Env) (evict.Policy, error)

// PrefetchFactory constructs a fresh prefetcher for one machine.
type PrefetchFactory func(env Env) (prefetch.Prefetcher, error)

// Registration declares one named policy. Exactly one of NewEviction /
// NewPrefetch must be set, matching Kind.
type Registration struct {
	// Name is the registry key ("lru", "mhpe", "learned", ...). Names are
	// namespaced per kind: an eviction policy and a prefetcher may share a
	// name, two eviction policies may not.
	Name string
	// Version is the policy-contract version the registration was written
	// against; it must equal APIVersion.
	Version int
	// Kind selects the contract (eviction or prefetch).
	Kind Kind
	// Description is a one-line human-readable summary (cppe-sim -list).
	Description string
	// NewEviction is the factory for KindEviction registrations.
	NewEviction EvictionFactory
	// NewPrefetch is the factory for KindPrefetch registrations.
	NewPrefetch PrefetchFactory
}

// registry is a named, versioned policy table. The zero value is ready to
// use. It is safe for concurrent use (registration typically happens in
// init/main, lookups happen on the harness fan-out).
type registry struct {
	mu       sync.Mutex
	eviction map[string]Registration
	prefetch map[string]Registration
}

var global registry

func (r *registry) table(k Kind) map[string]Registration {
	switch k {
	case KindEviction:
		if r.eviction == nil {
			r.eviction = make(map[string]Registration)
		}
		return r.eviction
	case KindPrefetch:
		if r.prefetch == nil {
			r.prefetch = make(map[string]Registration)
		}
		return r.prefetch
	default:
		return nil
	}
}

// Register adds reg to the global registry. A duplicate (kind, name) is
// ErrPolicyExists; a malformed registration is ErrBadRegistration. Both are
// returned, never panicked, so a bad plugin degrades into one structured
// error instead of aborting the process.
func Register(reg Registration) error {
	if reg.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadRegistration)
	}
	if reg.Version != APIVersion {
		return fmt.Errorf("%w: %q declares contract version %d, this build implements %d",
			ErrBadRegistration, reg.Name, reg.Version, APIVersion)
	}
	switch reg.Kind {
	case KindEviction:
		if reg.NewEviction == nil || reg.NewPrefetch != nil {
			return fmt.Errorf("%w: %q: eviction registrations set NewEviction and only NewEviction", ErrBadRegistration, reg.Name)
		}
	case KindPrefetch:
		if reg.NewPrefetch == nil || reg.NewEviction != nil {
			return fmt.Errorf("%w: %q: prefetch registrations set NewPrefetch and only NewPrefetch", ErrBadRegistration, reg.Name)
		}
	default:
		return fmt.Errorf("%w: %q has kind %v", ErrBadRegistration, reg.Name, reg.Kind)
	}
	global.mu.Lock()
	defer global.mu.Unlock()
	tab := global.table(reg.Kind)
	if _, dup := tab[reg.Name]; dup {
		return fmt.Errorf("%w: %v policy %q", ErrPolicyExists, reg.Kind, reg.Name)
	}
	tab[reg.Name] = reg
	return nil
}

// MustRegister is Register for the in-tree builtins, whose registrations are
// compile-time constants; it panics on error like template.Must.
func MustRegister(reg Registration) {
	if err := Register(reg); err != nil {
		panic(err)
	}
}

// lookup returns the registration for (kind, name).
func lookup(k Kind, name string) (Registration, error) {
	global.mu.Lock()
	defer global.mu.Unlock()
	reg, ok := global.table(k)[name]
	if !ok {
		return Registration{}, fmt.Errorf("%w: no %v policy %q (known: %v)",
			ErrUnknownPolicy, k, name, namesLocked(global.table(k)))
	}
	return reg, nil
}

// Lookup returns the registration for (kind, name), or ErrUnknownPolicy.
func Lookup(k Kind, name string) (Registration, error) { return lookup(k, name) }

// NewEviction constructs a fresh eviction policy by registry name.
func NewEviction(name string, env Env) (evict.Policy, error) {
	reg, err := lookup(KindEviction, name)
	if err != nil {
		return nil, err
	}
	return reg.NewEviction(env)
}

// NewPrefetch constructs a fresh prefetcher by registry name.
func NewPrefetch(name string, env Env) (prefetch.Prefetcher, error) {
	reg, err := lookup(KindPrefetch, name)
	if err != nil {
		return nil, err
	}
	return reg.NewPrefetch(env)
}

// namesLocked collects a table's keys sorted (the registry lock must be
// held). Sorting makes the enumeration deterministic despite map storage.
func namesLocked(tab map[string]Registration) []string {
	out := make([]string, 0, len(tab))
	//cppelint:ordered keys are sorted before use
	for name := range tab {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// EvictionNames returns the registered eviction-policy names, sorted.
func EvictionNames() []string {
	global.mu.Lock()
	defer global.mu.Unlock()
	return namesLocked(global.table(KindEviction))
}

// PrefetchNames returns the registered prefetcher names, sorted.
func PrefetchNames() []string {
	global.mu.Lock()
	defer global.mu.Unlock()
	return namesLocked(global.table(KindPrefetch))
}
