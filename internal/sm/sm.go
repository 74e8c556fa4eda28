// Package sm models the GPU's streaming multiprocessors and composes the full
// simulated machine (SMs + MMU + caches + DRAM + interconnect + UVM driver).
//
// Each SM runs a set of warps; each warp is an independent stream of
// post-coalesced global-memory accesses. A warp issues its next access a
// fixed compute gap after the previous one completes. When an access far
// faults, only that warp stalls (replayable far faults); the SM — and the
// whole GPU — keeps executing other warps. This is the execution-model
// abstraction the paper's fault-overhead analysis relies on: with page faults
// costing ~28,000 cycles, pipeline detail below the warp level is noise.
//
// The per-access pipeline is allocation-free on the hot path: each warp has
// exactly one access in flight and keeps its state in its slot of the warp
// slab, and each stage is one machine-wide callback keyed by the warp's slab
// index; the shared L2/DRAM path pools its request contexts the same way. A
// fresh machine is built from one allocation per kind of component.
package sm

import (
	"fmt"
	"time"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/cache"
	"github.com/reproductions/cppe/internal/dram"
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/inject"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/uvm"
	"github.com/reproductions/cppe/internal/xbus"
)

// Tag kinds for SM-scheduled events.
const (
	// TagWarpStep issues a warp's next access after the compute gap.
	TagWarpStep engine.Tag = 0x0101
	// TagWarpL1 is a warp's post-translation L1 data-cache probe.
	TagWarpL1 engine.Tag = 0x0102
	// TagWarpFin is a warp's data-access completion (the done callback its
	// L2/DRAM request carries).
	TagWarpFin engine.Tag = 0x0103
	// TagMemL2 is a request's L2 probe on the shared data path.
	TagMemL2 engine.Tag = 0x0105
)

// memReq is one pooled request context for the shared L2/DRAM path. Its
// registry index is the argument of its L2 event, so a request costs no
// allocation after the pool warms up.
type memReq struct {
	idx  uint64 // index in memPath.reqs, stable for the machine's lifetime
	a    memdef.VirtAddr
	kind memdef.AccessKind
	tag  engine.Tag // the kind of the completion's event
	// The completion: done, or doneArg(arg) when done is nil.
	done    func()
	doneArg func(uint64)
	arg     uint64
	next    *memReq
}

// memPath is the shared L2-cache + DRAM data path, used by SM data accesses
// (after their private L1) and by the page-table walker.
type memPath struct {
	eng  *engine.Engine
	cfg  memdef.Config
	l2   *cache.Cache
	dram *dram.DRAM
	// l2Fn is the TagMemL2 event of the request its argument indexes,
	// shared by every request.
	l2Fn func(uint64)
	// reqs holds every request context built, free the chain of inactive
	// ones; contexts are carved out of slab. A machine reset truncates reqs
	// and empties the chain; newReq then hands the retained contexts out
	// again, so a recycled machine builds none.
	reqs []*memReq
	free *memReq
	slab []memReq
}

// reqSlab is the number of request contexts allocated at once.
const reqSlab = 64

// newReq returns an idle request context: a retained one below the
// high-water mark of reqs, else a new one from the slab.
func (mp *memPath) newReq() *memReq {
	if i := len(mp.reqs); i < cap(mp.reqs) {
		if rq := mp.reqs[:i+1][i]; rq != nil {
			mp.reqs = mp.reqs[:i+1]
			*rq = memReq{idx: rq.idx}
			return rq
		}
	}
	if len(mp.slab) == 0 {
		mp.slab = make([]memReq, reqSlab)
	}
	rq := &mp.slab[0]
	mp.slab = mp.slab[1:]
	rq.idx = uint64(len(mp.reqs))
	mp.reqs = append(mp.reqs, rq)
	return rq
}

// Access implements ptw.MemAccessor: L2 lookup, then DRAM on a miss. tag is
// the kind of done's event, whichever stage schedules it.
func (mp *memPath) Access(a memdef.VirtAddr, kind memdef.AccessKind, tag engine.Tag, done func()) {
	mp.access(a, kind, tag, done, nil, 0)
}

// accessArg is Access completing with fn(arg) instead of a closure.
func (mp *memPath) accessArg(a memdef.VirtAddr, kind memdef.AccessKind, tag engine.Tag, fn func(uint64), arg uint64) {
	mp.access(a, kind, tag, nil, fn, arg)
}

func (mp *memPath) access(a memdef.VirtAddr, kind memdef.AccessKind, tag engine.Tag, done func(), doneArg func(uint64), arg uint64) {
	rq := mp.free
	if rq == nil {
		rq = mp.newReq()
	} else {
		mp.free = rq.next
		rq.next = nil
	}
	rq.a, rq.kind, rq.tag = a, kind, tag
	rq.done, rq.doneArg, rq.arg = done, doneArg, arg
	mp.eng.ScheduleArgTagged(mp.cfg.L2HitLatency, TagMemL2, mp.l2Fn, rq.idx)
}

// l2Stage performs request idx's L2 probe, and its DRAM access on a miss,
// after which it schedules the completion at the DRAM's finish cycle. It
// copies the operands out and releases the context first, so re-entrant
// accesses from the completion can reuse it.
func (mp *memPath) l2Stage(idx uint64) {
	rq := mp.reqs[idx]
	a, kind, tag, done, doneArg, arg := rq.a, rq.kind, rq.tag, rq.done, rq.doneArg, rq.arg
	rq.done, rq.doneArg = nil, nil
	rq.next = mp.free
	mp.free = rq
	res := mp.l2.Access(a, kind)
	if res.WritebackVictim {
		// Dirty victim drains to DRAM off the critical path (no completion,
		// so no event and no tag).
		mp.dram.Access(a, memdef.Write)
	}
	if res.Hit {
		if done != nil {
			done()
		} else {
			doneArg(arg)
		}
		return
	}
	finish := mp.dram.Access(a, kind)
	if done != nil {
		mp.eng.ScheduleAtTagged(finish, tag, done)
	} else {
		mp.eng.ScheduleArgAtTagged(finish, tag, doneArg, arg)
	}
}

// warp is one in-flight access stream. Its index in Machine.warps is the
// argument of its step, L1 and completion events.
type warp struct {
	sm    *SM
	trace []memdef.Op
	pos   int

	// In-flight access state (one access outstanding per warp).
	acc   memdef.Access
	issue memdef.Cycle

	// translated is the warp's MMU translation-done callback, which
	// schedules its L1 probe. It is the one per-warp closure left, because
	// uvm.Translate takes a func(); it is built once per warp slot and kept
	// across resets.
	translated func()
}

// SM is one streaming multiprocessor.
type SM struct {
	id memdef.SMID
	l1 *cache.Cache

	accessesDone uint64
	stallCycles  memdef.Cycle
}

// Machine is the complete simulated GPU attached to a host over PCIe.
type Machine struct {
	Eng  *engine.Engine
	Cfg  memdef.Config
	L2   *cache.Cache
	DRAM *dram.DRAM
	Link *xbus.Link
	MMU  *uvm.Manager
	SMs  []*SM

	mp memPath
	// warps is the warp slab, one per non-empty trace in SM-major order
	// (each SM's warps in trace order), so seeding them in index order is
	// the SM-major order the golden results were pinned with.
	warps []warp
	// The warp events, shared by every warp and keyed by its index.
	stepFn      func(uint64) // TagWarpStep: issue the warp's next access
	l1Fn        func(uint64) // TagWarpL1: probe the warp's L1 after translation
	finFn       func(uint64) // TagWarpFin: account the access, schedule the next
	activeWarps int
	started     bool // warps seeded: a paused machine must not reseed

	aud *audit.Auditor
	inj *inject.Injector
}

// NewMachine builds the full system with the given eviction policy and
// prefetcher, and loads one trace per warp. Traces beyond
// NumSMs x WarpsPerSM panic; missing traces just leave warps idle.
func NewMachine(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher, traces [][]memdef.Op) *Machine {
	m := &Machine{}
	if err := m.Reset(cfg, pol, pf, traces); err != nil {
		panic(err)
	}
	return m
}

// Reset rebuilds the machine in place for a new run: afterwards it is
// indistinguishable from NewMachine(cfg, pol, pf, traces) — same state, same
// registry IDs, same results — but it reuses the components, tag
// stores, context registries and event nodes of its previous run instead of
// allocating them. A zero Machine is built from scratch. A built machine
// accepts only a cfg of the shape it was built with: every field except
// MemoryPages must match. Reset discards whatever the previous run left,
// finished, aborted or paused.
func (m *Machine) Reset(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher, traces [][]memdef.Op) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if maxWarps := cfg.NumSMs * cfg.WarpsPerSM; len(traces) > maxWarps {
		return fmt.Errorf("sm: %d traces exceed %d warps", len(traces), maxWarps)
	}
	if m.Eng == nil {
		m.build(cfg, pol, pf)
	} else {
		if shape(cfg) != shape(m.Cfg) {
			return fmt.Errorf("sm: reset changes the machine's shape (only MemoryPages may differ)")
		}
		m.Eng.Reset()
		m.L2.Reset()
		m.DRAM.Reset()
		m.Link.Reset()
		m.MMU.Reset(cfg, pol, pf)
		for _, s := range m.SMs {
			s.l1.Reset()
			*s = SM{id: s.id, l1: s.l1}
		}
	}
	*m = Machine{
		Eng:  m.Eng,
		Cfg:  cfg,
		L2:   m.L2,
		DRAM: m.DRAM,
		Link: m.Link,
		MMU:  m.MMU,
		SMs:  m.SMs,
		mp: memPath{
			eng:  m.Eng,
			cfg:  cfg,
			l2:   m.L2,
			dram: m.DRAM,
			l2Fn: m.mp.l2Fn,
			reqs: m.mp.reqs[:0],
			slab: m.mp.slab,
		},
		warps:  m.warps,
		stepFn: m.stepFn,
		l1Fn:   m.l1Fn,
		finFn:  m.finFn,
	}
	if cfg.AuditEveryCycles > 0 {
		// Integrity auditing: periodic full-state checks run between events
		// (read-only, so they never perturb event ordering or results).
		aud := audit.New()
		aud.SetClock(m.Eng.Now)
		m.MMU.AttachAuditor(aud)
		m.Eng.SetPeriodic(cfg.AuditEveryCycles, func() {
			if aud.CheckNow("periodic") > 0 {
				// Fail-stop: end the run with the structured violation
				// instead of simulating corrupted state to completion.
				m.MMU.Abort(aud.Err())
			}
		})
		m.aud = aud
	}
	if cfg.ChaosSeed != 0 {
		inj := inject.New(inject.Defaults(cfg.ChaosSeed))
		m.MMU.SetInjector(inj)
		m.inj = inj
	}
	m.loadWarps(traces)
	return nil
}

// build allocates the components of a machine of cfg's shape.
func (m *Machine) build(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher) {
	m.Eng = engine.New()
	m.L2 = cache.New("l2", cfg.L2CacheBytes, cfg.L2CacheWays, cfg.L2CacheLineSz)
	m.DRAM = dram.New(m.Eng, cfg)
	m.Link = xbus.New(m.Eng, cfg)
	m.MMU = uvm.New(m.Eng, cfg, m.Link, pol, pf, &m.mp)
	sms := make([]SM, cfg.NumSMs)
	l1s := cache.NewMany("l1", cfg.NumSMs, cfg.L1CacheBytes, cfg.L1CacheWays, cfg.L1CacheLineSz)
	m.SMs = make([]*SM, cfg.NumSMs)
	for i := range sms {
		sms[i] = SM{id: memdef.SMID(i), l1: &l1s[i]}
		m.SMs[i] = &sms[i]
	}
	m.mp.l2Fn = m.mp.l2Stage
	m.stepFn = m.step
	m.l1Fn = m.l1Stage
	m.finFn = m.finished
}

// shape is cfg without its per-run capacity: the part of a configuration
// that fixes the machine's structure and wiring.
func shape(cfg memdef.Config) memdef.Config {
	cfg.MemoryPages = 0
	return cfg
}

// loadWarps fills the warp slab with one idle warp per non-empty trace.
// Traces are assigned round-robin across SMs, so a workload's parallelism
// spreads over the machine the way a real grid would; the slab holds them
// SM-major. Warp slots, with their translated callbacks, are kept across
// resets and the slab grows only when a run has more warps than any before.
func (m *Machine) loadWarps(traces [][]memdef.Op) {
	n := 0
	for _, tr := range traces {
		if len(tr) > 0 {
			n++
		}
	}
	if n > cap(m.warps) {
		grown := make([]warp, n)
		copy(grown, m.warps[:cap(m.warps)])
		m.warps = grown
	}
	m.warps = m.warps[:n]
	g := 0
	for si, s := range m.SMs {
		for wi := si; wi < len(traces); wi += len(m.SMs) {
			if len(traces[wi]) == 0 {
				continue
			}
			w := &m.warps[g]
			*w = warp{sm: s, trace: traces[wi], translated: w.translated}
			if w.translated == nil {
				gid := uint64(g)
				w.translated = func() { m.Eng.ScheduleArgTagged(m.Cfg.L1HitLatency, TagWarpL1, m.l1Fn, gid) }
			}
			g++
		}
	}
	m.activeWarps = n
}

// step issues warp g's next access, or retires the warp.
func (m *Machine) step(g uint64) {
	w := &m.warps[g]
	if w.pos >= len(w.trace) {
		m.activeWarps--
		return
	}
	w.acc = w.trace[w.pos].Access()
	w.pos++
	w.issue = m.Eng.Now()
	m.MMU.Translate(w.sm.id, w.acc, w.translated)
}

// l1Stage probes warp g's L1 data cache, after the L1 hit latency, and sends
// a miss down the shared L2/DRAM path.
func (m *Machine) l1Stage(g uint64) {
	w := &m.warps[g]
	res := w.sm.l1.Access(w.acc.Addr, w.acc.Kind)
	if res.WritebackVictim {
		m.DRAM.Access(w.acc.Addr, memdef.Write)
	}
	if res.Hit {
		m.finished(g)
		return
	}
	m.mp.accessArg(w.acc.Addr, w.acc.Kind, TagWarpFin, m.finFn, g)
}

// finished accounts warp g's completed data access and schedules its next
// step after the compute gap.
func (m *Machine) finished(g uint64) {
	w := &m.warps[g]
	w.sm.accessesDone++
	w.sm.stallCycles += m.Eng.Now() - w.issue
	m.Eng.ScheduleArgTagged(m.Cfg.ComputeGapCycles, TagWarpStep, m.stepFn, g)
}

// SetFootprint forwards the application footprint to the thrash detector.
func (m *Machine) SetFootprint(pages int) { m.MMU.SetFootprint(pages) }

// Auditor returns the integrity auditor, or nil when auditing is disabled
// (Cfg.AuditEveryCycles == 0).
func (m *Machine) Auditor() *audit.Auditor { return m.aud }

// Injector returns the armed fault injector, or nil when chaos is disabled
// (Cfg.ChaosSeed == 0).
func (m *Machine) Injector() *inject.Injector { return m.inj }

// SetWatchdog arms the engine's no-progress watchdog (see engine.SetWatchdog)
// for the next Run. window <= 0 disarms it.
func (m *Machine) SetWatchdog(window time.Duration) { m.Eng.SetWatchdog(window, 0) }

// Result summarizes one simulation.
type Result struct {
	// Cycles is the total execution time in core cycles.
	Cycles memdef.Cycle
	// Crashed is true when the thrash detector aborted the run (the modeled
	// equivalent of the paper's baseline crashes) or the event budget blew.
	Crashed bool
	// Accesses is the total completed memory accesses.
	Accesses uint64
	// Err is the structured failure of the run, if any: a typed driver error
	// (uvm.ErrNoVictim, uvm.ErrFaultService), an engine livelock error
	// (engine.ErrBudget, engine.ErrNoProgress), or the first integrity
	// violation (*audit.IntegrityError). Nil for clean runs — including
	// thrash aborts, which are a modeled outcome, not a failure.
	Err error
}

// Run executes the machine to completion and returns the result. maxEvents
// bounds runaway simulations (0 = a generous default).
func (m *Machine) Run(maxEvents uint64) Result {
	m.Eng.ClearPause()
	res, _ := m.run(maxEvents)
	return res
}

// RunUntil executes until the machine finishes or every event at cycles <=
// pauseAt has fired, whichever comes first. paused reports that the machine
// stopped at the pause boundary — an epoch boundary of a resumable run — and
// the accompanying Result is an intermediate reading, not a final one.
func (m *Machine) RunUntil(maxEvents uint64, pauseAt memdef.Cycle) (res Result, paused bool) {
	m.Eng.PauseAt(pauseAt)
	defer m.Eng.ClearPause()
	return m.run(maxEvents)
}

// run charges maxEvents against the engine's fired count, so one budget
// covers the whole simulation: a run paused by RunUntil and continued stops
// where a single Run would.
func (m *Machine) run(maxEvents uint64) (Result, bool) {
	if maxEvents == 0 {
		maxEvents = 2_000_000_000
	}
	if !m.started {
		m.started = true
		// SM-major order: each SM's warps are seeded back-to-back, preserving
		// the deterministic same-cycle FIFO order the golden results were
		// pinned with.
		for g := range m.warps {
			m.Eng.ScheduleArgTagged(0, TagWarpStep, m.stepFn, uint64(g))
		}
	}
	var err error
	if fired := m.Eng.Fired(); fired < maxEvents {
		m.Eng.SetEventBudget(maxEvents - fired)
		_, err = m.Eng.Run(func() bool { return m.MMU.Aborted() })
	} else if m.Eng.Pending() > 0 {
		err = engine.ErrBudget
	}
	if err == engine.ErrPaused {
		return Result{Cycles: m.Eng.Now()}, true
	}
	if m.aud != nil {
		// Close the audit window: catch corruption introduced after the last
		// periodic tick. Read-only, so clean results are unchanged.
		m.aud.CheckNow("final")
	}
	var accesses uint64
	for _, s := range m.SMs {
		accesses += s.accessesDone
	}
	res := Result{
		Cycles:   m.Eng.Now(),
		Crashed:  m.MMU.Aborted() || err == engine.ErrBudget,
		Accesses: accesses,
	}
	// Failure priority: typed driver failures, then engine livelock errors,
	// then the first integrity violation.
	res.Err = m.MMU.Failure()
	if res.Err == nil && err != nil {
		res.Err = err
	}
	if res.Err == nil && m.aud != nil {
		res.Err = m.aud.Err()
	}
	if res.Err != nil {
		res.Crashed = true
	}
	return res, false
}

// ActiveWarps returns the number of warps that have not retired.
func (m *Machine) ActiveWarps() int { return m.activeWarps }

// SMStats is per-SM accounting.
type SMStats struct {
	ID           memdef.SMID
	AccessesDone uint64
	StallCycles  memdef.Cycle
	L1Cache      cache.Stats
}

// SMStats returns the per-SM statistics.
func (m *Machine) SMStats() []SMStats {
	out := make([]SMStats, 0, len(m.SMs))
	for _, s := range m.SMs {
		l1 := s.l1.Stats()
		l1.Name = fmt.Sprintf("l1-sm%d", s.id)
		out = append(out, SMStats{
			ID:           s.id,
			AccessesDone: s.accessesDone,
			StallCycles:  s.stallCycles,
			L1Cache:      l1,
		})
	}
	return out
}
