package evict

import (
	"github.com/reproductions/cppe/internal/memdef"
)

// HPE is the original hierarchical page eviction policy (Yu et al.,
// ISPASS'19 [14] / TCAD [15]), implemented as the paper describes it in
// Sections II-C and III. It is included both as a baseline for the design
// ablations and to reproduce Inefficiency 1: HPE's per-chunk counters count
// pages *brought in* — when prefetching is enabled they are polluted by
// prefetched (rather than touched) pages and the regular/irregular
// classification breaks down.
//
// Structure: a recency-ordered chunk chain partitioned into old/middle/new by
// the interval of the last driver-visible reference. Per-chunk counters feed
// a one-shot classification at memory-full time:
//
//   - regular      -> MRU-C: from the MRU end of the old partition, the first
//     chunk whose counter qualifies (>= CounterThreshold), with a search
//     start point that advances on wrong evictions;
//   - irregular#1  -> LRU;
//   - irregular#2  -> starts with LRU and switches between LRU and MRU-C when
//     an interval sees too many wrong evictions, preferring the strategy that
//     historically lasted longer.
type HPE struct {
	opt   HPEOptions
	chain *Chain

	interval           int
	migratedInInterval int

	memFull bool
	class   HPEClass

	strategy    Strategy
	searchStart int

	// wrong-eviction buffer (fixed length: evictions of the last two
	// intervals, 8 chunks at the default interval length).
	buf wrongRing
	w   int

	// irregular#2 switching state.
	curStratIntervals int
	lruIntervalsTotal int
	mruIntervalsTotal int

	stats HPEStats
}

// HPEOptions parameterize HPE. Zero values take defaults.
type HPEOptions struct {
	// IntervalPages is the interval length in migrated pages (default 64).
	IntervalPages int
	// CounterThreshold is MRU-C's qualification bar (default 12 of 16).
	CounterThreshold int
	// RegularFraction / IrregularFraction bound the one-shot classification:
	// fraction of chunks with a qualified counter at memory-full time
	// (defaults 0.7 and 0.3).
	RegularFraction, IrregularFraction float64
	// WrongSwitchThreshold is the per-interval wrong-eviction count that
	// makes irregular#2 switch strategies (default 2).
	WrongSwitchThreshold int
}

func (o HPEOptions) withDefaults() HPEOptions {
	if o.IntervalPages == 0 {
		o.IntervalPages = 64
	}
	if o.CounterThreshold == 0 {
		o.CounterThreshold = 12
	}
	if o.RegularFraction == 0 {
		o.RegularFraction = 0.7
	}
	if o.IrregularFraction == 0 {
		o.IrregularFraction = 0.3
	}
	if o.WrongSwitchThreshold == 0 {
		o.WrongSwitchThreshold = 2
	}
	return o
}

// HPEClass is HPE's application classification.
type HPEClass int

const (
	// HPEUnclassified means memory has not filled yet.
	HPEUnclassified HPEClass = iota
	// HPERegular applications use MRU-C.
	HPERegular
	// HPEIrregular1 applications use LRU.
	HPEIrregular1
	// HPEIrregular2 applications switch between LRU and MRU-C.
	HPEIrregular2
)

func (c HPEClass) String() string {
	switch c {
	case HPERegular:
		return "regular"
	case HPEIrregular1:
		return "irregular#1"
	case HPEIrregular2:
		return "irregular#2"
	default:
		return "unclassified"
	}
}

// HPEStats exposes HPE's trajectory.
type HPEStats struct {
	Class            HPEClass
	FinalStrategy    Strategy
	StrategySwitches uint64
	WrongEvictions   uint64
	Evictions        uint64
	ChainLenAtFull   int
	// QualifiedFractionAtFull is the fraction of chunks whose counter
	// qualified at classification time — the quantity prefetching pollutes.
	QualifiedFractionAtFull float64
}

// NewHPE returns an HPE policy.
func NewHPE(opt HPEOptions) *HPE {
	h := &HPE{
		opt:      opt.withDefaults(),
		chain:    NewChain(),
		strategy: StrategyLRU,
	}
	h.buf.resize(8)
	return h
}

// Name implements Policy.
func (h *HPE) Name() string { return "hpe" }

// OnFault refreshes recency and checks the wrong-eviction buffer.
func (h *HPE) OnFault(c memdef.ChunkID) {
	if e := h.chain.Get(c); e != nil {
		h.chain.MoveToTail(e)
		e.LastRefInterval = h.interval
	}
	if h.buf.take(c) {
		h.w++
		h.stats.WrongEvictions++
	}
}

// OnMigrate creates/refreshes the entry and — crucially — adds the number of
// migrated pages to the chunk counter. Without prefetching, pages arrive one
// per fault and the counter equals the touch count HPE was designed around;
// with prefetching, the counter is polluted by prefetched pages.
func (h *HPE) OnMigrate(c memdef.ChunkID, pages memdef.PageBitmap) {
	e := h.chain.Get(c)
	if e == nil {
		e = h.chain.PushTail(c)
		e.InsertedInterval = h.interval
	} else {
		h.chain.MoveToTail(e)
	}
	e.LastRefInterval = h.interval
	e.Counter += pages.Count()
	if e.Counter > memdef.ChunkPages {
		e.Counter = memdef.ChunkPages
	}
	h.migratedInInterval += pages.Count()
	for h.migratedInInterval >= h.opt.IntervalPages {
		h.migratedInInterval -= h.opt.IntervalPages
		h.endInterval()
	}
}

// OnTouch is a no-op: HPE in a prefetching system has no reference
// information from the GPU side (Inefficiency 1). In the non-prefetching
// configuration every touch of a new page is a fault, so recency and counters
// are maintained through OnFault/OnMigrate.
func (h *HPE) OnTouch(c memdef.ChunkID, pageIdx int) {}

// SelectVictim classifies the application on first use, then applies the
// class's strategy.
func (h *HPE) SelectVictim(excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	if !h.memFull {
		h.classify()
	}
	if h.strategy == StrategyLRU {
		return selectFromHead(h.chain, excluded)
	}
	return h.selectMRUC(excluded)
}

// selectMRUC searches from the MRU end of the old partition, skipping
// searchStart chunks, for the first qualified (counter >= threshold) chunk.
// If no chunk qualifies, the LRU-most old chunk is taken.
func (h *HPE) selectMRUC(excluded func(memdef.ChunkID) bool) (memdef.ChunkID, bool) {
	skipped := 0
	var lastOld *Entry
	for e := h.chain.Tail(); e != nil; e = h.chain.Prev(e) {
		if !h.isOld(e) || excluded(e.Chunk) {
			continue
		}
		lastOld = e
		if skipped < h.searchStart {
			skipped++
			continue
		}
		if e.Counter >= h.opt.CounterThreshold {
			return e.Chunk, true
		}
	}
	if lastOld != nil {
		return lastOld.Chunk, true
	}
	return selectFromHead(h.chain, excluded)
}

func (h *HPE) isOld(e *Entry) bool { return e.LastRefInterval <= h.interval-2 }

// OnEvicted removes the entry and records the tag in the wrong-eviction
// buffer.
func (h *HPE) OnEvicted(c memdef.ChunkID, untouch int) {
	if e := h.chain.Get(c); e != nil {
		h.chain.Remove(e)
	}
	h.stats.Evictions++
	h.buf.push(c)
}

// classify performs the one-shot classification at memory-full time.
func (h *HPE) classify() {
	h.memFull = true
	h.stats.ChainLenAtFull = h.chain.Len()
	qualified := 0
	for e := h.chain.Head(); e != nil; e = h.chain.Next(e) {
		if e.Counter >= h.opt.CounterThreshold {
			qualified++
		}
	}
	frac := 0.0
	if h.chain.Len() > 0 {
		frac = float64(qualified) / float64(h.chain.Len())
	}
	h.stats.QualifiedFractionAtFull = frac
	switch {
	case frac >= h.opt.RegularFraction:
		h.class = HPERegular
		h.strategy = StrategyMRU
	case frac <= h.opt.IrregularFraction:
		h.class = HPEIrregular1
		h.strategy = StrategyLRU
	default:
		h.class = HPEIrregular2
		h.strategy = StrategyLRU
	}
	h.stats.Class = h.class
}

// endInterval applies HPE's runtime adjustment.
func (h *HPE) endInterval() {
	h.interval++
	if !h.memFull {
		return
	}
	h.curStratIntervals++
	switch h.class {
	case HPERegular:
		// Remain MRU-C; advance the search start point on wrong evictions.
		if h.w > 0 && h.searchStart < 32 {
			h.searchStart += h.w
		}
	case HPEIrregular2:
		// Switch strategies when the current one misbehaves, preferring the
		// strategy that has historically lasted longer.
		if h.w >= h.opt.WrongSwitchThreshold {
			if h.strategy == StrategyLRU {
				h.lruIntervalsTotal += h.curStratIntervals
			} else {
				h.mruIntervalsTotal += h.curStratIntervals
			}
			h.curStratIntervals = 0
			if h.strategy == StrategyLRU {
				h.strategy = StrategyMRU
			} else {
				h.strategy = StrategyLRU
			}
			h.stats.StrategySwitches++
		}
	}
	h.w = 0
}

// Class returns the classification (HPEUnclassified before memory fills).
func (h *HPE) Class() HPEClass { return h.class }

// Strategy returns the current strategy.
func (h *HPE) Strategy() Strategy { return h.strategy }

// ChainLen exposes the chain length.
func (h *HPE) ChainLen() int { return h.chain.Len() }

// TrackedChunks implements the audit enumeration (see Tracked).
func (h *HPE) TrackedChunks() []memdef.ChunkID { return h.chain.Chunks() }

// Stats returns a snapshot.
func (h *HPE) Stats() HPEStats {
	s := h.stats
	s.FinalStrategy = h.strategy
	return s
}
