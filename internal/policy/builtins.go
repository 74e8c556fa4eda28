package policy

import (
	"fmt"

	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/prefetch"
)

// The in-tree policies, registered at package load. Each factory constructs
// exactly what the pre-registry setup wiring constructed, so registry-resolved
// setups reproduce the historical goldens byte for byte.
func init() {
	evictions := []Registration{
		{
			Name: "lru", Version: APIVersion, Kind: KindEviction,
			Description: "driver-visible recency LRU (baseline eviction, Ganguly et al. [16])",
			NewEviction: func(Env) (evict.Policy, error) { return evict.NewLRU(), nil },
		},
		{
			Name: "true-lru", Version: APIVersion, Kind: KindEviction,
			Description: "oracle GPU-touch-recency LRU (visibility ablation)",
			NewEviction: func(Env) (evict.Policy, error) { return evict.NewTrueLRU(), nil },
		},
		{
			Name: "random", Version: APIVersion, Kind: KindEviction,
			Description: "uniform random victim (Zheng et al. [9], Fig. 3/9)",
			NewEviction: func(env Env) (evict.Policy, error) { return evict.NewRandom(env.Seed), nil },
		},
		{
			Name: "hpe", Version: APIVersion, Kind: KindEviction,
			Description: "original hierarchical page eviction (Yu et al. [14][15])",
			NewEviction: func(env Env) (evict.Policy, error) {
				return evict.NewHPE(evict.HPEOptions{IntervalPages: env.Config.IntervalPages}), nil
			},
		},
		{
			Name: "mhpe", Version: APIVersion, Kind: KindEviction,
			Description: "modified HPE, the paper's eviction half (Algorithm 1)",
			NewEviction: mhpeWith(func(*evict.MHPEOptions) {}),
		},
		mhpeVariant("mhpe-probe", "MHPE frozen at MRU: the Table III/IV measurement mode",
			func(o *evict.MHPEOptions) { o.DisableSwitch = true }),
		{
			Name: "lru-10%", Version: APIVersion, Kind: KindEviction,
			Description: "reserved LRU, top 10% of the chain protected (Fig. 3/9)",
			NewEviction: func(Env) (evict.Policy, error) { return evict.NewReservedLRU(0.10), nil },
		},
		{
			Name: "lru-20%", Version: APIVersion, Kind: KindEviction,
			Description: "reserved LRU, top 20% of the chain protected (Fig. 3/9)",
			NewEviction: func(Env) (evict.Policy, error) { return evict.NewReservedLRU(0.20), nil },
		},
		{
			Name: "learned", Version: APIVersion, Kind: KindEviction,
			Description: "seeded deterministic perceptron ranking evict candidates over pattern-window features",
			NewEviction: func(env Env) (evict.Policy, error) { return NewLearned(env.Seed), nil },
		},
	}
	for t3 := 16; t3 <= 40; t3 += 4 {
		evictions = append(evictions, mhpeVariant(fmt.Sprintf("mhpe-t3-%d", t3),
			fmt.Sprintf("MHPE with forward-distance limit T3=%d (Section VI-A sweep)", t3),
			func(o *evict.MHPEOptions) { o.T3 = t3 }))
	}
	for _, pages := range []int{32, 128} {
		evictions = append(evictions, mhpeVariant(fmt.Sprintf("mhpe-int-%d", pages),
			fmt.Sprintf("MHPE with a %d-page interval (design ablation; paper: 64)", pages),
			func(o *evict.MHPEOptions) { o.IntervalPages = pages }))
	}
	for _, capacity := range []int{8, 128} {
		evictions = append(evictions, mhpeVariant(fmt.Sprintf("mhpe-buf-%d", capacity),
			fmt.Sprintf("MHPE with a fixed %d-entry wrong-eviction buffer (design ablation)", capacity),
			func(o *evict.MHPEOptions) { o.FixedBufferCap = capacity }))
	}
	for _, fwd := range []int{2, 8} {
		evictions = append(evictions, mhpeVariant(fmt.Sprintf("mhpe-fwd-%d", fwd),
			fmt.Sprintf("MHPE with initial forward distance %d (design ablation)", fwd),
			func(o *evict.MHPEOptions) { o.InitialForwardDistance = fwd }))
	}
	prefetchers := []Registration{
		{
			Name: "locality", Version: APIVersion, Kind: KindPrefetch,
			Description: "sequential-local 64 KiB-block prefetch (baseline, Zheng et al. [9])",
			NewPrefetch: func(Env) (prefetch.Prefetcher, error) { return prefetch.NewLocality(), nil },
		},
		{
			Name: "tree", Version: APIVersion, Kind: KindPrefetch,
			Description: "tree-based neighborhood prefetch (NVIDIA driver model, Ganguly et al. [16])",
			NewPrefetch: func(Env) (prefetch.Prefetcher, error) { return prefetch.NewTree(), nil },
		},
		{
			Name: "none", Version: APIVersion, Kind: KindPrefetch,
			Description: "no prefetch: one page per fault (HPE ablation)",
			NewPrefetch: func(Env) (prefetch.Prefetcher, error) { return prefetch.NewNone(), nil },
		},
		{
			Name: "disable-on-full", Version: APIVersion, Kind: KindPrefetch,
			Description: "locality prefetch until memory fills, then single pages (Li et al. [11])",
			NewPrefetch: func(Env) (prefetch.Prefetcher, error) { return prefetch.NewDisableOnFull(), nil },
		},
		{
			Name: "pattern-s1", Version: APIVersion, Kind: KindPrefetch,
			Description: "access pattern-aware prefetch, deletion Scheme-1 (Fig. 7)",
			NewPrefetch: func(env Env) (prefetch.Prefetcher, error) {
				return prefetch.NewPattern(prefetch.Scheme1, env.Config.PatternMinUntouch)
			},
		},
		{
			Name: "pattern-s2", Version: APIVersion, Kind: KindPrefetch,
			Description: "access pattern-aware prefetch, deletion Scheme-2 (this paper)",
			NewPrefetch: func(env Env) (prefetch.Prefetcher, error) {
				return prefetch.NewPattern(prefetch.Scheme2, env.Config.PatternMinUntouch)
			},
		},
	}
	for _, reg := range evictions {
		MustRegister(reg)
	}
	for _, reg := range prefetchers {
		MustRegister(reg)
	}
}

// mhpeWith returns a factory for MHPE with the configuration's Algorithm-1
// parameters (T1, T2, T3, interval length), then override applied.
func mhpeWith(override func(*evict.MHPEOptions)) EvictionFactory {
	return func(env Env) (evict.Policy, error) {
		o := evict.MHPEOptions{
			T1: env.Config.T1, T2: env.Config.T2, T3: env.Config.T3,
			IntervalPages: env.Config.IntervalPages,
		}
		override(&o)
		return evict.NewMHPE(o), nil
	}
}

// mhpeVariant registers MHPE with one option overridden: the fixed
// parameter points the evaluation's sweeps and ablations name.
func mhpeVariant(name, description string, override func(*evict.MHPEOptions)) Registration {
	return Registration{
		Name: name, Version: APIVersion, Kind: KindEviction,
		Description: description,
		NewEviction: mhpeWith(override),
	}
}
