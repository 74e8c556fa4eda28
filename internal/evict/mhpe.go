package evict

import (
	"slices"

	"github.com/reproductions/cppe/internal/memdef"
)

// MHPEOptions parameterize MHPE (Algorithm 1). Zero values are replaced by
// the paper's defaults in NewMHPE.
type MHPEOptions struct {
	// T1 is the per-interval untouch-level threshold that switches the
	// eviction strategy from MRU to LRU (paper: 32).
	T1 int
	// T2 is the first-four-intervals total untouch threshold (paper: 40).
	T2 int
	// T3 is the forward-distance limit: once the forward distance exceeds
	// T3 it is no longer increased (paper: 32).
	T3 int
	// IntervalPages is the interval length in migrated pages (paper: 64,
	// i.e. four chunk migrations per interval).
	IntervalPages int
	// DisableSwitch freezes the strategy at MRU. Used by the sensitivity
	// study that generates Tables III and IV, which measures raw untouch
	// levels under "MRU and an initial forward distance".
	DisableSwitch bool
	// DisableAdjust freezes the forward distance at its initial value.
	DisableAdjust bool
	// InitialForwardDistance overrides the chain-length-derived initial
	// forward distance when > 0 (used by the forward-distance sensitivity
	// sweep in Section IV-B).
	InitialForwardDistance int
	// FixedBufferCap overrides the chain-length-derived wrong-eviction
	// buffer size (max(8, 8*chainLen/64)) when > 0. Used by the buffer
	// sizing ablation.
	FixedBufferCap int
}

func (o MHPEOptions) withDefaults() MHPEOptions {
	if o.T1 == 0 {
		o.T1 = 32
	}
	if o.T2 == 0 {
		o.T2 = 40
	}
	if o.T3 == 0 {
		o.T3 = 32
	}
	if o.IntervalPages == 0 {
		o.IntervalPages = 64
	}
	return o
}

// MHPE is the paper's modified hierarchical page eviction policy
// (Section IV-B, Algorithm 1). Differences from HPE:
//
//   - the chain is migration-ordered (one update per chunk, not sixteen);
//   - no per-chunk counters: regular/irregular classification uses the
//     untouch level of evicted chunks, turning MRU-C into plain MRU;
//   - the strategy starts at MRU and may switch to LRU permanently when the
//     untouch level crosses T1 (any interval) or T2 (first four intervals);
//   - under MRU, the victim is found by skipping `forward distance` chunks
//     from the MRU end of the old partition; the distance starts at
//     clamp(chainLen/100, 2, 8) and grows each interval by
//     max(bucket(U1), W) until it exceeds T3;
//   - wrongly evicted chunks (refetched while still in the wrong-eviction
//     buffer) are re-inserted at the chain head (LRU position).
type MHPE struct {
	opt   MHPEOptions
	chain *Chain

	strategy Strategy

	interval           int // current interval number, from simulation start
	migratedInInterval int // pages migrated so far in the current interval

	memFull            bool
	intervalsSinceFull int

	forward int

	u1, u2 int // untouch totals: current interval / first four intervals
	w      int // wrong evictions in the current interval

	// Wrong-eviction buffer: a FIFO ring of recently evicted chunk tags,
	// sized when memory fills.
	buf wrongRing
	// pendWrong holds the chunks that faulted while in the buffer, each
	// once, until their migration inserts them at the head.
	pendWrong []memdef.ChunkID

	stats MHPEStats
}

// MHPEStats exposes the internal trajectory of the policy for the paper's
// sensitivity tables and the overhead analysis.
type MHPEStats struct {
	// FinalStrategy is the strategy at the end of the run.
	FinalStrategy Strategy
	// SwitchedAtInterval is the interval-since-full at which the policy
	// switched to LRU (-1 when it never switched).
	SwitchedAtInterval int
	// InitialForward and FinalForward are the forward distances at
	// memory-full time and at the end of the run.
	InitialForward, FinalForward int
	// WrongEvictions is the total number of wrong evictions detected.
	WrongEvictions uint64
	// Evictions is the total chunks evicted.
	Evictions uint64
	// IntervalUntouch[i] is the total untouch level of chunks evicted in
	// the i-th interval after memory filled (Tables III and IV).
	IntervalUntouch []int
	// BufferCap is the wrong-eviction buffer length chosen at full time.
	BufferCap int
	// ChainLenAtFull is the chunk-chain length when memory first filled.
	ChainLenAtFull int
	// ForwardAdjustments counts how many interval ends changed the distance.
	ForwardAdjustments uint64
}

// NewMHPE returns an MHPE policy with the given options.
func NewMHPE(opt MHPEOptions) *MHPE {
	return &MHPE{
		opt:      opt.withDefaults(),
		chain:    NewChain(),
		strategy: StrategyMRU,
		stats:    MHPEStats{SwitchedAtInterval: -1},
	}
}

// Name implements Policy.
func (m *MHPE) Name() string { return "mhpe" }

// OnFault checks the wrong-eviction buffer: a fault on a recently evicted
// chunk is a wrong eviction (Section IV-B, "Adjusting Forward Distance").
func (m *MHPE) OnFault(c memdef.ChunkID) {
	if m.buf.take(c) {
		m.w++
		m.stats.WrongEvictions++
		if !slices.Contains(m.pendWrong, c) {
			m.pendWrong = append(m.pendWrong, c)
		}
	}
}

// OnMigrate inserts new chunks at the MRU end — except wrongly evicted
// chunks, which are pinned at the LRU end while the strategy is MRU — and
// advances the interval clock by the number of migrated pages.
func (m *MHPE) OnMigrate(c memdef.ChunkID, pages memdef.PageBitmap) {
	if e := m.chain.Get(c); e == nil {
		wrong := false
		if i := slices.Index(m.pendWrong, c); i >= 0 {
			wrong = true
			m.pendWrong = slices.Delete(m.pendWrong, i, i+1)
		}
		var entry *Entry
		if wrong && m.strategy == StrategyMRU {
			entry = m.chain.PushHead(c)
		} else {
			entry = m.chain.PushTail(c)
		}
		entry.InsertedInterval = m.interval
		entry.LastRefInterval = m.interval
	}
	m.migratedInInterval += pages.Count()
	for m.migratedInInterval >= m.opt.IntervalPages {
		m.migratedInInterval -= m.opt.IntervalPages
		m.endInterval()
	}
}

// OnTouch only matters through the untouch level computed by the GMMU at
// eviction time; MHPE itself does not reorder the chain on touches (that is
// the "one update per chunk" overhead advantage over HPE).
func (m *MHPE) OnTouch(c memdef.ChunkID, pageIdx int) {}

// SelectVictim implements the MRU / LRU selection over the old partition.
func (m *MHPE) SelectVictim(excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	if !m.memFull {
		m.onMemoryFull()
	}
	if m.strategy == StrategyLRU {
		return selectFromHead(m.chain, excluded)
	}
	return m.selectMRU(excluded)
}

// selectMRU skips `forward` old-partition chunks from the MRU end and picks
// the next non-excluded old chunk; if the old partition is shorter than the
// forward distance, the LRU-most old chunk is used. When the old partition
// has no eligible chunk at all, it falls back to an LRU scan so the system
// can always make progress.
func (m *MHPE) selectMRU(excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	oldSeen := 0
	var lastOld *Entry
	for e := m.chain.Tail(); e != nil; e = m.chain.Prev(e) {
		if !m.isOld(e) || excluded(e.Chunk) {
			continue
		}
		if oldSeen >= m.forward {
			return e.Chunk, true
		}
		oldSeen++
		lastOld = e
	}
	if lastOld != nil {
		return lastOld.Chunk, true
	}
	return selectFromHead(m.chain, excluded)
}

// isOld reports whether e belongs to the old partition: migrated before the
// previous interval (not referenced in the current or last interval).
func (m *MHPE) isOld(e *Entry) bool { return e.InsertedInterval <= m.interval-2 }

// OnEvicted removes the chunk, accumulates its untouch level, and records it
// in the wrong-eviction buffer.
func (m *MHPE) OnEvicted(c memdef.ChunkID, untouch int) {
	if e := m.chain.Get(c); e != nil {
		m.chain.Remove(e)
	}
	m.stats.Evictions++
	m.u1 += untouch
	if m.intervalsSinceFull < 4 {
		m.u2 += untouch
	}
	m.pushBuf(c)
}

func (m *MHPE) pushBuf(c memdef.ChunkID) {
	if m.buf.slots == nil {
		// Memory not yet marked full (tests that call OnEvicted directly,
		// or an injected chain corruption); fall back to the minimum buffer.
		m.buf.resize(8)
		m.stats.BufferCap = 8
	}
	m.buf.push(c)
}

// onMemoryFull initializes the forward distance and the wrong-eviction
// buffer from the chunk-chain length (Section IV-B).
func (m *MHPE) onMemoryFull() {
	m.memFull = true
	n := m.chain.Len()
	m.stats.ChainLenAtFull = n

	if m.opt.InitialForwardDistance > 0 {
		m.forward = m.opt.InitialForwardDistance
	} else {
		m.forward = n / 100
		if m.forward < 2 {
			m.forward = 2
		}
		if m.forward > 8 {
			m.forward = 8
		}
	}
	m.stats.InitialForward = m.forward

	bufCap := (n / 64) * 8
	if bufCap < 8 {
		bufCap = 8
	}
	if m.opt.FixedBufferCap > 0 {
		bufCap = m.opt.FixedBufferCap
	}
	m.buf.resize(bufCap)
	m.stats.BufferCap = bufCap
}

// endInterval runs one iteration of Algorithm 1's loop body.
func (m *MHPE) endInterval() {
	m.interval++
	if !m.memFull {
		return
	}
	m.intervalsSinceFull++
	m.stats.IntervalUntouch = append(m.stats.IntervalUntouch, m.u1)

	if m.strategy == StrategyMRU && !m.opt.DisableSwitch {
		switch {
		case m.u1 >= m.opt.T1:
			m.switchToLRU()
		case m.intervalsSinceFull == 4 && m.u2 >= m.opt.T2:
			m.switchToLRU()
		}
	}
	if m.strategy == StrategyMRU && !m.opt.DisableAdjust {
		if m.forward <= m.opt.T3 {
			add := m.untouchBucket(m.u1)
			if m.w > add {
				add = m.w
			}
			if add > 0 {
				m.forward += add
				m.stats.ForwardAdjustments++
			}
		}
	}
	m.u1 = 0
	m.w = 0
}

func (m *MHPE) switchToLRU() {
	m.strategy = StrategyLRU
	if m.stats.SwitchedAtInterval < 0 {
		m.stats.SwitchedAtInterval = m.intervalsSinceFull
	}
}

// untouchBucket maps a per-interval untouch total in [0, T1-1] to an
// adjustment value 0..4 (five ranges; for T1=32: [0-3], [4-10], [11-17],
// [18-24], [25-31]).
func (m *MHPE) untouchBucket(u int) int {
	first := m.opt.T1 / 8
	if first < 1 {
		first = 1
	}
	if u < first {
		return 0
	}
	width := (m.opt.T1 - first) / 4
	if width < 1 {
		width = 1
	}
	b := 1 + (u-first)/width
	if b > 4 {
		b = 4
	}
	return b
}

// Strategy returns the current eviction strategy.
func (m *MHPE) Strategy() Strategy { return m.strategy }

// ForwardDistance returns the current forward distance.
func (m *MHPE) ForwardDistance() int { return m.forward }

// ChainLen exposes the chain length.
func (m *MHPE) ChainLen() int { return m.chain.Len() }

// TrackedChunks implements the audit enumeration (see Tracked).
func (m *MHPE) TrackedChunks() []memdef.ChunkID { return m.chain.Chunks() }

// Stats returns a snapshot of the policy's trajectory.
func (m *MHPE) Stats() MHPEStats {
	s := m.stats
	s.FinalStrategy = m.strategy
	s.FinalForward = m.forward
	s.IntervalUntouch = append([]int(nil), m.stats.IntervalUntouch...)
	return s
}
