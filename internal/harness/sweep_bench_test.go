package harness

import (
	"testing"

	"github.com/reproductions/cppe/internal/workload"
)

// fig8Keys is the Fig. 8 sweep's key set: every benchmark under baseline and
// CPPE at both paper oversubscription rates.
func fig8Keys() []Key {
	var keys []Key
	for _, b := range workload.Abbrs() {
		for _, pct := range Rates {
			keys = append(keys, Key{b, "baseline", pct}, Key{b, "cppe", pct})
		}
	}
	return keys
}

// BenchmarkFig8Sweep measures the cost of warming the full Fig. 8 key set
// through Session.Warm, allocations included. Each
// iteration is a cold session: trace memoization amortizes within an
// iteration (one generation per workload), not across them.
func BenchmarkFig8Sweep(b *testing.B) {
	keys := fig8Keys()
	cfg := Config{Scale: 0.05, Warps: 32, Parallelism: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewSession(cfg)
		s.Warm(keys)
		if got := s.CachedRuns(); got != len(keys) {
			b.Fatalf("warmed %d of %d keys", got, len(keys))
		}
	}
	b.ReportMetric(float64(len(keys)), "runs/op")
}
