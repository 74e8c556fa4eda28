package cppe

import "testing"

// TestJobIDRegistryPair: JobID accepts every setup Run accepts, including
// "evict+prefetch" registry pairs, gives them a stable ID of their own, and
// leaves the IDs of the canonical setups unchanged.
func TestJobIDRegistryPair(t *testing.T) {
	opt := Options{Scale: 0.05}
	pair := Request{Benchmark: "NW", Setup: "mhpe+locality", Oversubscription: 50}
	id, err := NewSession(opt).JobID(pair)
	if err != nil {
		t.Fatalf("JobID(%+v): %v", pair, err)
	}
	if again, err := NewSession(opt).JobID(pair); err != nil || again != id {
		t.Errorf("pair ID not stable across sessions: %q then %q (%v)", id, again, err)
	}
	s := NewSession(opt)
	for _, setup := range Setups() {
		canon, err := s.JobID(Request{Benchmark: pair.Benchmark, Setup: setup, Oversubscription: pair.Oversubscription})
		if err != nil {
			t.Fatalf("JobID(%s): %v", setup, err)
		}
		if canon == id {
			t.Errorf("pair %s shares its ID with canonical setup %s", pair.Setup, setup)
		}
	}
	// Pinned: the content address of a canonical job, under which served
	// results are stored, must not move.
	const srdCPPE50 = "b08ce91609ffa0de"
	if got, err := s.JobID(Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}); err != nil || got != srdCPPE50 {
		t.Errorf("JobID(SRD/cppe@50) = %q, %v; want %q", got, err, srdCPPE50)
	}
	if _, err := s.JobID(Request{Benchmark: "NW", Setup: "mhpe+nosuch", Oversubscription: 50}); err == nil {
		t.Error("JobID accepted a pair with an unknown prefetcher")
	}
}
