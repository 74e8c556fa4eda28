package stats

import "sync"

// Sweep-progress counters: a sweep commits one SweepDelta per finished run
// to a shared SweepAgg, never one per simulated event. Because every counter
// is a sum, the aggregate totals are independent of worker interleaving: the
// same sweep produces the same totals at GOMAXPROCS 1 or 8.

// SweepDelta is one batch of sweep-progress counters. The zero value is the
// empty delta.
type SweepDelta struct {
	// Runs counts completed simulations.
	Runs uint64
	// Cycles is simulated cycles advanced.
	Cycles uint64
	// Accesses is completed memory accesses.
	Accesses uint64
	// Faults is far-fault events serviced.
	Faults uint64
	// MigratedPages / EvictedPages is CPU->GPU / GPU->CPU page traffic.
	MigratedPages uint64
	EvictedPages  uint64
}

// Add accumulates x into d.
func (d *SweepDelta) Add(x SweepDelta) {
	d.Runs += x.Runs
	d.Cycles += x.Cycles
	d.Accesses += x.Accesses
	d.Faults += x.Faults
	d.MigratedPages += x.MigratedPages
	d.EvictedPages += x.EvictedPages
}

// SweepAgg is the shared sweep-progress table, safe for concurrent use.
type SweepAgg struct {
	mu      sync.Mutex
	total   SweepDelta
	commits uint64
}

// SweepTotals is a snapshot of the committed aggregate.
type SweepTotals struct {
	SweepDelta
	// Commits counts Commit calls — the number of times the shared table
	// was touched.
	Commits uint64
}

// Commit folds d into the aggregate under one lock acquisition.
func (a *SweepAgg) Commit(d SweepDelta) {
	a.mu.Lock()
	a.total.Add(d)
	a.commits++
	a.mu.Unlock()
}

// Totals returns the committed aggregate.
func (a *SweepAgg) Totals() SweepTotals {
	a.mu.Lock()
	defer a.mu.Unlock()
	return SweepTotals{SweepDelta: a.total, Commits: a.commits}
}
