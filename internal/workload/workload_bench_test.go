package workload

import "testing"

// BenchmarkGenerate measures trace generation for a representative benchmark
// of each archetype at the default scale.
func BenchmarkGenerate(b *testing.B) {
	for _, abbr := range []string{"2DC", "KMN", "NW", "SRD", "HIS", "B+T"} {
		bench, _ := ByAbbr(abbr)
		b.Run(abbr, func(b *testing.B) {
			var accesses int
			for i := 0; i < b.N; i++ {
				tr := bench.Generate(Options{Scale: 0.25, Warps: 64})
				accesses = tr.Accesses
			}
			b.ReportMetric(float64(accesses), "accesses")
		})
	}
}

// BenchmarkWorkloadGenerate measures one full generation plus fingerprint —
// the work a sweep performs exactly once per workload — against the memoized
// lookup every subsequent machine build pays instead. The allocs/op gap
// between the two sub-benchmarks is the per-build saving of trace
// memoization.
func BenchmarkWorkloadGenerate(b *testing.B) {
	bench, _ := ByAbbr("SRD")
	opt := Options{Scale: 0.25, Warps: 64}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := NewCache()
			if g := c.Get(bench, opt); g.Fingerprint() == 0 {
				b.Fatal("degenerate fingerprint")
			}
		}
	})
	b.Run("memoized", func(b *testing.B) {
		b.ReportAllocs()
		c := NewCache()
		first := c.Get(bench, opt)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if g := c.Get(bench, opt); g != first {
				b.Fatal("memoized entry not shared")
			}
		}
	})
}
