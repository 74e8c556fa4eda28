package policy

import (
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
)

// The learned eviction policy: an online margin perceptron that ranks evict
// candidates. It is the in-tree proof of the registry + MachineView API — a
// policy that consults only the narrow view (residency bit vectors, the
// pattern window, capacity pressure) plus its own driver-visible events, yet
// plugs into the simulator, the sweep's recycled machines, and the
// conformance kit exactly like the hand-tuned heuristics.
//
// Decision rule. Candidates are the first scanDepth non-excluded chunks from
// the LRU end of a driver-visible recency chain (the same chain LRU keeps).
// Each candidate is scored by a fixed-point linear model over features
// described below; the highest score is evicted (ties break toward the LRU
// end, so an all-zero model degenerates to exact LRU). A seeded splitmix64
// stream occasionally (1/64 of selections) forces the plain LRU choice —
// ε-greedy exploration that keeps the feedback loop from locking onto a
// self-confirming ranking.
//
// Learning signal. Evicted chunks enter a bounded FIFO ring together with
// the feature vector that chose them. A far fault on a ringed chunk means
// the eviction was wrong (the chunk was still needed): the perceptron
// demotes its feature vector. A chunk that falls off the ring un-refaulted
// was a good eviction: its features are promoted. Updates apply only inside
// a margin, weights are clamped, and all arithmetic is integer — decisions
// reproduce bit-identically across platforms, GOMAXPROCS, and reruns.
const (
	nFeatures    = 6
	scanDepth    = 16      // candidates considered per eviction
	learnMargin  = 1 << 16 // update only inside this |score| confidence band
	weightClamp  = 1 << 20
	exploreDenom = 64 // 1/64 of selections take the plain LRU head
	ringCap      = 32 // remembered evictions (wrong-eviction horizon)
)

// Feature indices (fixed-point, <<8 scale).
const (
	featBias      = iota // constant 256
	featRank             // candidate rank from the LRU end
	featTouched          // driver-visible touch count (chain counter)
	featUntouched        // resident-but-untouched pages, from the view
	featPressure         // resident/capacity fill fraction, from the view
	featRecycled         // chunk reappears in the machine's pattern window
)

// lrng is a splitmix64 generator (single-word state).
type lrng struct{ s uint64 }

func (r *lrng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ringEntry remembers one eviction until it is judged.
type ringEntry struct {
	chunk memdef.ChunkID
	feats [nFeatures]int64
	score int64
	valid bool
}

// LearnedStats exposes the model's trajectory for reports and experiments.
type LearnedStats struct {
	// Evictions and WrongEvictions count decisions and ring re-faults.
	Evictions, WrongEvictions uint64
	// Promotions and Demotions count perceptron updates by direction.
	Promotions, Demotions uint64
	// Explorations counts ε-greedy forced-LRU selections.
	Explorations uint64
	// Weights is the final weight vector.
	Weights [nFeatures]int64
}

// Learned is the perceptron eviction policy. See the package comment block
// above for the model. It implements evict.Policy, evict.Tracked and
// ViewBinder.
type Learned struct {
	chain *evict.Chain
	view  MachineView // nil until bound; features degrade to zero
	rng   lrng
	w     [nFeatures]int64

	ring     [ringCap]ringEntry
	ringNext int

	// last selection, pending confirmation by OnEvicted.
	lastChunk memdef.ChunkID
	lastFeats [nFeatures]int64
	lastScore int64
	lastValid bool

	stats LearnedStats
}

// NewLearned returns a learned policy seeded for deterministic exploration.
// The initial weights encode a weak LRU-with-untouch prior (prefer older,
// less-touched, more-untouched candidates) that training then reshapes.
func NewLearned(seed int64) *Learned {
	l := &Learned{
		chain: evict.NewChain(),
		rng:   lrng{s: uint64(seed) ^ 0x1ea12ed},
	}
	l.w[featRank] = -4
	l.w[featTouched] = -2
	l.w[featUntouched] = 2
	return l
}

// Name implements evict.Policy.
func (l *Learned) Name() string { return "learned" }

// BindView implements ViewBinder.
func (l *Learned) BindView(v MachineView) { l.view = v }

// OnFault refreshes recency and checks the eviction ring: a fault on a
// recently evicted chunk convicts that eviction as wrong and demotes the
// feature vector that chose it.
func (l *Learned) OnFault(c memdef.ChunkID) {
	if e := l.chain.Get(c); e != nil {
		l.chain.MoveToTail(e)
	}
	for i := range l.ring {
		r := &l.ring[i]
		if r.valid && r.chunk == c {
			r.valid = false
			l.stats.WrongEvictions++
			if r.score >= -learnMargin {
				l.update(r.feats, -1)
				l.stats.Demotions++
			}
			break
		}
	}
}

// OnMigrate inserts the chunk at the MRU end (or refreshes it).
func (l *Learned) OnMigrate(c memdef.ChunkID, pages memdef.PageBitmap) {
	if e := l.chain.Get(c); e != nil {
		l.chain.MoveToTail(e)
		return
	}
	l.chain.PushTail(c)
}

// OnTouch counts driver-observable first touches per chunk (the chain
// entry's counter is the touch tally, 0..16).
func (l *Learned) OnTouch(c memdef.ChunkID, pageIdx int) {
	if e := l.chain.Get(c); e != nil && e.Counter < memdef.ChunkPages {
		e.Counter++
	}
}

// features builds the candidate's vector. rank is its 0-based position among
// the scanned candidates (0 = LRU-most); recent is the view's eviction window,
// read once per selection (it cannot change while one is in progress).
func (l *Learned) features(e *evict.Entry, rank, scanned int, recent []EvictionRecord) [nFeatures]int64 {
	var f [nFeatures]int64
	f[featBias] = 256
	f[featRank] = int64(rank) * 256 / int64(scanned)
	f[featTouched] = int64(e.Counter) * 256 / memdef.ChunkPages
	if l.view != nil {
		resident := l.view.ChunkResident(e.Chunk)
		untouched := resident &^ l.view.ChunkTouched(e.Chunk)
		f[featUntouched] = int64(untouched.Count()) * 256 / memdef.ChunkPages
		if cap := l.view.CapacityPages(); cap > 0 {
			f[featPressure] = int64(l.view.ResidentPages()) * 256 / int64(cap)
		}
		for _, rec := range recent {
			if rec.Chunk == e.Chunk {
				f[featRecycled] = 256
				break
			}
		}
	}
	return f
}

func (l *Learned) score(f [nFeatures]int64) int64 {
	var s int64
	for i := range f {
		s += l.w[i] * f[i]
	}
	return s
}

// update applies one perceptron step with clamped weights.
func (l *Learned) update(f [nFeatures]int64, label int64) {
	for i := range f {
		w := l.w[i] + label*f[i]/256
		if w > weightClamp {
			w = weightClamp
		}
		if w < -weightClamp {
			w = -weightClamp
		}
		l.w[i] = w
	}
}

// SelectVictim scores the first scanDepth non-excluded candidates from the
// LRU end and returns the best one (ε-greedy: occasionally the plain LRU
// head, so exploration keeps feeding the model counterfactuals).
func (l *Learned) SelectVictim(excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	var cands [scanDepth]*evict.Entry
	n := 0
	for e := l.chain.Head(); e != nil && n < scanDepth; e = l.chain.Next(e) {
		if !excluded(e.Chunk) {
			cands[n] = e
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	var recent []EvictionRecord
	if l.view != nil {
		recent = l.view.RecentEvictions()
	}
	pick := 0
	var bestFeats [nFeatures]int64
	var bestScore int64
	if l.rng.next()%exploreDenom == 0 {
		// Exploration: take the LRU head unconditionally.
		bestFeats = l.features(cands[0], 0, n, recent)
		bestScore = l.score(bestFeats)
		l.stats.Explorations++
	} else {
		for i := 0; i < n; i++ {
			f := l.features(cands[i], i, n, recent)
			s := l.score(f)
			if i == 0 || s > bestScore {
				pick, bestFeats, bestScore = i, f, s
			}
		}
	}
	l.lastChunk = cands[pick].Chunk
	l.lastFeats = bestFeats
	l.lastScore = bestScore
	l.lastValid = true
	return cands[pick].Chunk, true
}

// OnEvicted removes the chunk and, when it confirms the pending selection,
// enters it into the judgement ring. The entry this push overwrites — if it
// survived the whole ring un-refaulted — counts as a good eviction and is
// promoted.
func (l *Learned) OnEvicted(c memdef.ChunkID, untouch int) {
	if e := l.chain.Get(c); e != nil {
		l.chain.Remove(e)
	}
	l.stats.Evictions++
	if !l.lastValid || l.lastChunk != c {
		// Not the selection we scored (or an unsolicited eviction from a
		// test driver): nothing to learn from.
		return
	}
	l.lastValid = false
	old := l.ring[l.ringNext]
	if old.valid && old.score <= learnMargin {
		l.update(old.feats, +1)
		l.stats.Promotions++
	}
	l.ring[l.ringNext] = ringEntry{chunk: c, feats: l.lastFeats, score: l.lastScore, valid: true}
	l.ringNext = (l.ringNext + 1) % ringCap
}

// ChainLen exposes the chain length (overhead analysis, tests).
func (l *Learned) ChainLen() int { return l.chain.Len() }

// TrackedChunks implements the audit enumeration (see evict.Tracked).
func (l *Learned) TrackedChunks() []memdef.ChunkID { return l.chain.Chunks() }

// Stats returns the model trajectory (weights are copied).
func (l *Learned) Stats() LearnedStats {
	st := l.stats
	st.Weights = l.w
	return st
}
