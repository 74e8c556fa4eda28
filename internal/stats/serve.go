package stats

import "sync/atomic"

// Service-layer counters for cppe-serve. The counters are monotonic atomics
// (safe for concurrent use from HTTP handlers and workers) and stay inside
// the determinism contract of this package: no goroutines, no clocks, no map
// iteration — the service layer owns all of those.

// ServeCounters counts the observable events of the sweep service's job
// lifecycle. All fields are cumulative since process start; a restart resets
// them (durable state lives in the job store, not here).
type ServeCounters struct {
	// Accepted counts jobs admitted into the queue (fresh submissions and
	// re-submissions of failed jobs).
	Accepted atomic.Uint64
	// Deduped counts submissions that matched an in-flight job and joined
	// it instead of running again.
	Deduped atomic.Uint64
	// CacheHits counts submissions answered directly from the completed
	// result cache (no simulation, no queueing).
	CacheHits atomic.Uint64
	// Rejected counts submissions turned away by admission control (full
	// queue -> 429, or draining -> 503).
	Rejected atomic.Uint64
	// Replayed counts jobs recovered from the journal at startup.
	Replayed atomic.Uint64
	// SimsStarted / SimsCompleted count underlying simulation attempts: a
	// cache-served or deduplicated request starts no simulation, which is
	// exactly what the dedup smoke test asserts.
	SimsStarted   atomic.Uint64
	SimsCompleted atomic.Uint64
	// Retries counts attempts re-scheduled after a retryable run failure.
	Retries atomic.Uint64
	// Parked counts runs stopped and requeued by a graceful shutdown,
	// disk-pressure degradation, or a replay race; each reruns from cycle 0.
	Parked atomic.Uint64
	// Failed counts jobs that reached the terminal failed state.
	Failed atomic.Uint64
	// Compacted counts journal records replay removed because the job's
	// result bytes are durable, so the result file alone carries it forward
	// (a crash between a job's result write and its record's removal leaves
	// one).
	Compacted atomic.Uint64
	// SweepsAccepted counts sweep grids admitted via POST /v1/sweeps, and
	// SweepPoints the grid points fanned out across all of them (points
	// joined to an already-cached or in-flight job included).
	SweepsAccepted atomic.Uint64
	SweepPoints    atomic.Uint64
	// GCEvicted and GCReclaimedBytes count results removed by the result-
	// store GC and the bytes they freed.
	GCEvicted        atomic.Uint64
	GCReclaimedBytes atomic.Uint64
	// GCPinsHonored counts results the GC policy selected for eviction but
	// spared because they were pinned by an in-flight read, owned by a
	// non-terminal job, or part of an active sweep.
	GCPinsHonored atomic.Uint64
	// DegradedEvents counts transitions into disk-pressure degraded mode
	// (sticky until restart, so normally 0 or 1 per process life).
	DegradedEvents atomic.Uint64
}

// ServeSnapshot is a point-in-time reading of ServeCounters, shaped for the
// /statsz JSON document.
type ServeSnapshot struct {
	Accepted      uint64 `json:"accepted"`
	Deduped       uint64 `json:"deduped"`
	CacheHits     uint64 `json:"cache_hits"`
	Rejected      uint64 `json:"rejected"`
	Replayed      uint64 `json:"replayed"`
	SimsStarted   uint64 `json:"sims_started"`
	SimsCompleted uint64 `json:"sims_completed"`
	Retries       uint64 `json:"retries"`
	Parked        uint64 `json:"parked"`
	Failed        uint64 `json:"failed"`
	Compacted     uint64 `json:"compacted"`

	SweepsAccepted uint64 `json:"sweeps_accepted"`
	SweepPoints    uint64 `json:"sweep_points"`

	GCEvicted        uint64 `json:"gc_evicted"`
	GCReclaimedBytes uint64 `json:"gc_reclaimed_bytes"`
	GCPinsHonored    uint64 `json:"gc_pins_honored"`

	DegradedEvents uint64 `json:"degraded_events"`
}

// Snapshot returns the current counter values. Each counter is read
// atomically; the snapshot as a whole is not a single atomic cut, which is
// fine for monitoring (every value is monotone).
func (c *ServeCounters) Snapshot() ServeSnapshot {
	return ServeSnapshot{
		Accepted:      c.Accepted.Load(),
		Deduped:       c.Deduped.Load(),
		CacheHits:     c.CacheHits.Load(),
		Rejected:      c.Rejected.Load(),
		Replayed:      c.Replayed.Load(),
		SimsStarted:   c.SimsStarted.Load(),
		SimsCompleted: c.SimsCompleted.Load(),
		Retries:       c.Retries.Load(),
		Parked:        c.Parked.Load(),
		Failed:        c.Failed.Load(),
		Compacted:     c.Compacted.Load(),

		SweepsAccepted: c.SweepsAccepted.Load(),
		SweepPoints:    c.SweepPoints.Load(),

		GCEvicted:        c.GCEvicted.Load(),
		GCReclaimedBytes: c.GCReclaimedBytes.Load(),
		GCPinsHonored:    c.GCPinsHonored.Load(),

		DegradedEvents: c.DegradedEvents.Load(),
	}
}
