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
// exactly one access in flight, so its stage callbacks are built once at
// construction and carry their state in warp fields; the shared L2/DRAM path
// pools its request contexts the same way.
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

// Tag kinds for SM-scheduled events (engine.Tag.A carries the
// operand: a warp's global index or a memory-request registry ID).
const (
	// TagWarpStep issues warp A's next access after the compute gap.
	TagWarpStep uint16 = 0x0101
	// TagWarpL1 is warp A's post-translation L1 data-cache probe.
	TagWarpL1 uint16 = 0x0102
	// TagWarpFin is warp A's data-access completion (the done callback its
	// L2/DRAM request carries).
	TagWarpFin uint16 = 0x0103
	// TagMemL2 is request A's L2 probe on the shared data path.
	TagMemL2 uint16 = 0x0105
)

// memReq is one pooled request context for the shared L2/DRAM path: the
// callback closure is created once per node and reads its operands from the
// node, so a request costs no allocation after the pool warms up. Contexts
// carry a stable registry ID, the operand of their L2-probe event's tag.
type memReq struct {
	mp   *memPath
	id   uint64
	a    memdef.VirtAddr
	kind memdef.AccessKind
	tag  engine.Tag // the caller's description of done
	done func()
	run  func()
	next *memReq
}

// memPath is the shared L2-cache + DRAM data path, used by SM data accesses
// (after their private L1) and by the page-table walker.
type memPath struct {
	eng *engine.Engine
	cfg memdef.Config
	l2  *cache.Cache
	// dram is the backing memory; reqs is the request registry indexed by
	// memReq.id, free the chain of inactive contexts. A machine reset
	// truncates the registry and empties the chain; newReq then hands the
	// retained contexts out again in ID order.
	dram *dram.DRAM
	reqs []*memReq
	free *memReq
}

// newReq returns an idle request context with the next registry ID: a
// retained one below the registry's high-water mark, else a new one.
func (mp *memPath) newReq() *memReq {
	if i := len(mp.reqs); i < cap(mp.reqs) {
		if rq := mp.reqs[:i+1][i]; rq != nil {
			mp.reqs = mp.reqs[:i+1]
			*rq = memReq{mp: mp, id: rq.id, run: rq.run}
			return rq
		}
	}
	rq := &memReq{mp: mp, id: uint64(len(mp.reqs))}
	rq.run = rq.l2Stage
	mp.reqs = append(mp.reqs, rq)
	return rq
}

// Access implements ptw.MemAccessor: L2 lookup, then DRAM on a miss. tag
// describes done and rides along to whatever completion event is scheduled.
func (mp *memPath) Access(a memdef.VirtAddr, kind memdef.AccessKind, tag engine.Tag, done func()) {
	rq := mp.free
	if rq == nil {
		rq = mp.newReq()
	} else {
		mp.free = rq.next
		rq.next = nil
	}
	rq.a, rq.kind, rq.tag, rq.done = a, kind, tag, done
	mp.eng.ScheduleTagged(mp.cfg.L2HitLatency, engine.Tag{Kind: TagMemL2, A: rq.id}, rq.run)
}

// l2Stage performs the L2 probe (and DRAM access on a miss). It copies its
// operands out and releases the node first, so re-entrant Access calls from
// the completion callback can reuse it.
func (rq *memReq) l2Stage() {
	mp, a, kind, tag, done := rq.mp, rq.a, rq.kind, rq.tag, rq.done
	rq.done = nil
	rq.tag = engine.Tag{}
	rq.next = mp.free
	mp.free = rq
	res := mp.l2.Access(a, kind)
	if res.WritebackVictim {
		// Dirty victim drains to DRAM off the critical path (no completion
		// callback, so no event and no tag).
		mp.dram.Access(a, memdef.Write, nil)
	}
	if res.Hit {
		done()
		return
	}
	mp.dram.AccessT(a, kind, tag, done)
}

// Warp is one in-flight access stream.
type warp struct {
	id    memdef.WarpID
	gid   uint64 // index into Machine.allWarps, the ScheduleArg handle
	sm    *SM
	trace []memdef.Access
	pos   int

	// In-flight access state (one access outstanding per warp), read by the
	// per-warp stage callbacks below, which are built once in newWarp.
	acc   memdef.Access
	issue memdef.Cycle

	translated func() // MMU translation done -> start the data access
	l1Stage    func() // L1 data-cache probe, after the L1 hit latency
	finished   func() // data access complete -> account and schedule next step
}

// SM is one streaming multiprocessor.
type SM struct {
	id      memdef.SMID
	machine *Machine
	l1      *cache.Cache
	warps   []*warp

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

	mp          *memPath
	allWarps    []*warp
	stepWarp    func(uint64) // shared ScheduleArg trampoline: allWarps[g].step()
	activeWarps int
	started     bool // warps seeded: a paused machine must not reseed
	finished    memdef.Cycle

	aud *audit.Auditor
	inj *inject.Injector
}

// NewMachine builds the full system with the given eviction policy and
// prefetcher, and loads one trace per warp. Traces beyond
// NumSMs x WarpsPerSM panic; missing traces just leave warps idle.
func NewMachine(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher, traces [][]memdef.Access) *Machine {
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
func (m *Machine) Reset(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher, traces [][]memdef.Access) error {
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
			*s = SM{id: s.id, machine: m, l1: s.l1, warps: s.warps[:0]}
		}
	}
	*m.mp = memPath{eng: m.Eng, cfg: cfg, l2: m.L2, dram: m.DRAM, reqs: m.mp.reqs[:0]}
	*m = Machine{
		Eng:      m.Eng,
		Cfg:      cfg,
		L2:       m.L2,
		DRAM:     m.DRAM,
		Link:     m.Link,
		MMU:      m.MMU,
		SMs:      m.SMs,
		mp:       m.mp,
		allWarps: m.allWarps[:0],
		stepWarp: m.stepWarp,
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
	// Round-robin trace assignment across SMs so a workload's parallelism
	// spreads over the machine the way a real grid would.
	for wi, tr := range traces {
		if len(tr) == 0 {
			continue
		}
		w := m.newWarp()
		w.id = memdef.WarpID(wi)
		w.sm = m.SMs[wi%cfg.NumSMs]
		w.trace = tr
		w.sm.warps = append(w.sm.warps, w)
		m.activeWarps++
	}
	return nil
}

// build allocates the components of a machine of cfg's shape.
func (m *Machine) build(cfg memdef.Config, pol evict.Policy, pf prefetch.Prefetcher) {
	m.Eng = engine.New()
	m.L2 = cache.New("l2", cfg.L2CacheBytes, cfg.L2CacheWays, cfg.L2CacheLineSz)
	m.DRAM = dram.New(m.Eng, cfg)
	m.Link = xbus.New(m.Eng, cfg)
	m.mp = &memPath{}
	m.MMU = uvm.New(m.Eng, cfg, m.Link, pol, pf, m.mp)
	for i := 0; i < cfg.NumSMs; i++ {
		m.SMs = append(m.SMs, &SM{
			id:      memdef.SMID(i),
			machine: m,
			l1:      cache.New(fmt.Sprintf("l1-sm%d", i), cfg.L1CacheBytes, cfg.L1CacheWays, cfg.L1CacheLineSz),
		})
	}
	m.stepWarp = func(g uint64) { m.allWarps[g].step() }
}

// shape is cfg without its per-run capacity: the part of a configuration
// that fixes the machine's structure and wiring.
func shape(cfg memdef.Config) memdef.Config {
	cfg.MemoryPages = 0
	return cfg
}

// newWarp appends an idle warp to allWarps: a retained one below the
// registry's high-water mark, else a new one with its once-built stage
// callbacks. The callbacks reach the warp's SM through w.sm, so a retained
// warp serves whichever SM its next trace lands on.
func (m *Machine) newWarp() *warp {
	gid := len(m.allWarps)
	if gid < cap(m.allWarps) {
		if w := m.allWarps[:gid+1][gid]; w != nil {
			m.allWarps = m.allWarps[:gid+1]
			*w = warp{gid: w.gid, translated: w.translated, l1Stage: w.l1Stage, finished: w.finished}
			return w
		}
	}
	w := &warp{gid: uint64(gid)}
	w.translated = func() {
		m.Eng.ScheduleTagged(m.Cfg.L1HitLatency, engine.Tag{Kind: TagWarpL1, A: w.gid}, w.l1Stage)
	}
	w.l1Stage = func() {
		res := w.sm.l1.Access(w.acc.Addr, w.acc.Kind)
		if res.WritebackVictim {
			m.DRAM.Access(w.acc.Addr, memdef.Write, nil)
		}
		if res.Hit {
			w.finished()
			return
		}
		m.mp.Access(w.acc.Addr, w.acc.Kind, engine.Tag{Kind: TagWarpFin, A: w.gid}, w.finished)
	}
	w.finished = func() {
		w.sm.accessesDone++
		w.sm.stallCycles += m.Eng.Now() - w.issue
		m.Eng.ScheduleArgTagged(m.Cfg.ComputeGapCycles, engine.Tag{Kind: TagWarpStep, A: w.gid}, m.stepWarp, w.gid)
	}
	m.allWarps = append(m.allWarps, w)
	return w
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
		for _, s := range m.SMs {
			for _, w := range s.warps {
				m.Eng.ScheduleArgTagged(0, engine.Tag{Kind: TagWarpStep, A: w.gid}, m.stepWarp, w.gid)
			}
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

// step issues the warp's next access, or retires the warp.
func (w *warp) step() {
	if w.pos >= len(w.trace) {
		w.sm.machine.activeWarps--
		return
	}
	w.acc = w.trace[w.pos]
	w.pos++
	w.issue = w.sm.machine.Eng.Now()
	w.sm.machine.MMU.Translate(w.sm.id, w.acc, w.translated)
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
		out = append(out, SMStats{
			ID:           s.id,
			AccessesDone: s.accessesDone,
			StallCycles:  s.stallCycles,
			L1Cache:      s.l1.Stats(),
		})
	}
	return out
}
