package serve

import (
	"path/filepath"
	"sort"
	"time"
)

// This file is the result-store garbage collector: size- and age-bounded
// eviction of cached result bytes, LRU by last-served. GC never touches the
// journal (startup compaction owns that), never touches checkpoints (the
// retry path owns those), and never evicts a result that is pinned by an
// in-flight read or protected by the keep callback (non-terminal jobs and
// every point of an active sweep). Eviction order is deterministic for a
// given serve history: least-recently-served first, ties broken by mtime
// then ID.

// GCConfig bounds the result store. Zero values disable the corresponding
// bound.
type GCConfig struct {
	// MaxBytes caps the total size of stored results; the LRU tail is evicted
	// until the total fits.
	MaxBytes int64
	// MaxAge evicts results not written within the window (and lets the
	// server expire manifests of long-completed sweeps).
	MaxAge time.Duration
}

// Enabled reports whether any bound is set.
func (c GCConfig) Enabled() bool { return c.MaxBytes > 0 || c.MaxAge > 0 }

// GCStats is one collection's outcome, accumulated into the serve counters.
type GCStats struct {
	// EvictedResults and ReclaimedBytes count what was removed.
	EvictedResults int
	ReclaimedBytes int64
	// PinsHonored counts results the policy would have evicted but spared
	// because they were pinned or kept — the test-enforced safety property.
	PinsHonored int
}

// gcCandidate is one stored result under consideration.
type gcCandidate struct {
	id    string
	path  string
	size  int64
	mtime time.Time
	seq   uint64 // last-served sequence; 0 = never served this process life
}

// GC enforces cfg over the result store at time now. keep (nil = keep
// nothing extra) marks results that must survive regardless of budget:
// the server passes a predicate covering non-terminal jobs and all points of
// active sweeps. Pinned results always survive.
func (st *Store) GC(cfg GCConfig, now time.Time, keep func(id string) bool) GCStats {
	var out GCStats
	if !cfg.Enabled() {
		return out
	}
	paths, err := st.fs.Glob(filepath.Join(st.resultsDir(), "*.json"))
	if err != nil {
		return out
	}
	var cands []gcCandidate
	var total int64
	st.mu.Lock()
	for _, p := range paths {
		size, mtime, ok := st.statResult(p)
		if !ok {
			continue
		}
		id := resultIDFromPath(p)
		cands = append(cands, gcCandidate{id: id, path: p, size: size, mtime: mtime, seq: st.lastServed[id]})
		total += size
	}
	st.mu.Unlock()

	// Least-recently-served first. Results never served this process life
	// (seq 0) go before any served one, ordered by mtime so the oldest write
	// leaves first; ID breaks exact ties deterministically.
	sort.Slice(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		if !a.mtime.Equal(b.mtime) {
			return a.mtime.Before(b.mtime)
		}
		return a.id < b.id
	})

	// evict removes c unless it is protected, reporting whether a pin or keep
	// saved it. The pin check and the removal share st.mu, so a reader that
	// pins between them cannot have the file taken from under its read.
	evict := func(c gcCandidate) (protected bool) {
		if keep != nil && keep(c.id) {
			return true
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.pinnedLocked(c.id) {
			return true
		}
		if st.fs.Remove(c.path) != nil {
			return false
		}
		delete(st.results, c.id)
		delete(st.lastServed, c.id)
		out.EvictedResults++
		out.ReclaimedBytes += c.size
		total -= c.size
		return false
	}

	for _, c := range cands {
		overAge := cfg.MaxAge > 0 && now.Sub(c.mtime) > cfg.MaxAge
		overSize := cfg.MaxBytes > 0 && total > cfg.MaxBytes
		if !overAge && !overSize {
			if cfg.MaxBytes > 0 && total <= cfg.MaxBytes && cfg.MaxAge <= 0 {
				break // size is the only bound and it is met; the rest survive
			}
			continue
		}
		if evict(c) {
			out.PinsHonored++
		}
	}
	return out
}
