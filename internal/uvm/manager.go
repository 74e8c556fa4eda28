// Package uvm implements the unified-memory management layer: the GMMU
// (GPU-side translation front end: per-SM L1 TLBs, shared L2 TLB, page-table
// walker) and the software driver runtime that services far faults, migrates
// pages over the interconnect, manages oversubscribed GPU memory capacity,
// and coordinates the eviction policy with the prefetcher.
//
// The far-fault flow matches Section II-A of the paper: a memory access that
// misses both TLBs triggers a page-table walk; a walk that finds no valid
// mapping raises a far fault handled on the host with a 20 µs service
// latency; the faulting warp is stalled and replayed when the page arrives
// (replayable far faults, Zheng et al. [9]), while other warps keep running.
//
// Hot-path bookkeeping is dense: per-chunk state lives in a slice indexed by
// chunk ID (footprints are contiguous), pending-fault marks are per-chunk
// bitmaps, fault waiters are linked through their translation contexts, and
// every event callback is built once and takes its operand as the event
// argument, so the translate → fault → migrate → evict path is
// allocation-free in steady state.
package uvm

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/pagetable"
	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/ptw"
	"github.com/reproductions/cppe/internal/tlb"
	"github.com/reproductions/cppe/internal/xbus"
)

// Snapshot tag kinds for driver-scheduled events (engine.Tag.A carries the
// operand: a translation registry ID, a page number, or a migration ID).
const (
	// TagXlatL1 is translation A's post-L1-latency TLB probe.
	TagXlatL1 uint16 = 0x0301
	// TagXlatL2Grant is translation A's L2 TLB port grant.
	TagXlatL2Grant uint16 = 0x0302
	// TagXlatL2Stage is translation A's post-L2-latency TLB probe.
	TagXlatL2Stage uint16 = 0x0303
	// TagXlatFault is translation A's far-fault completion (also the tag
	// under which it waits on a chunk page).
	TagXlatFault uint16 = 0x0304
	// TagXlatWalkDone is the link tag naming translation A's walkDone
	// callback; it never appears in the event queue (the walker invokes the
	// callback directly) but re-links in-flight walks on restore.
	TagXlatWalkDone uint16 = 0x0305
	// TagProcessFault is the driver-slot grant that starts servicing the
	// claimed fault on page A.
	TagProcessFault uint16 = 0x0306
	// TagFaultRetry is the backoff retry of the fault on page A, attempt B.
	TagFaultRetry uint16 = 0x0307
	// TagMigSvc is the end of migration A's fixed fault-service latency.
	TagMigSvc uint16 = 0x0308
	// TagMigXfer is migration A's H2D transfer completion.
	TagMigXfer uint16 = 0x0309
)

// chunkState is the GMMU's per-resident-chunk bookkeeping: which pages are
// resident, which are being migrated, and which have been touched by the GPU
// since migration (the touch bit vector read at eviction time).
type chunkState struct {
	resident memdef.PageBitmap
	inflight memdef.PageBitmap
	touched  memdef.PageBitmap
	// pendingFault marks pages whose fault has been claimed but whose
	// migration has not been planned yet (the fault sits in the driver's
	// fault buffer); later faults on the same page merge into its waiters.
	pendingFault memdef.PageBitmap
	// smMask records which SMs may hold L1 TLB entries for this chunk's
	// pages (set at L1 insert time), so eviction only shoots down those L1s.
	// It over-approximates — an entry may have aged out — which is safe:
	// invalidating an absent page is a no-op. Bit i covers SM i; SMs >= 64
	// fall back to smMaskAll.
	smMask    uint64
	smMaskAll bool
	// waitHead/waitTail are, per chunk page, the ends of the FIFO of
	// faulted translations to resume when the page becomes resident. The
	// list is intrusive (linked through xlat.waitNext): every waiter is a
	// translation context, which waits on at most one page at a time.
	waitHead, waitTail [memdef.ChunkPages]*xlat
}

// addWaiter queues translation x until page index idx becomes resident.
// Clearing x's link keeps every list acyclic even if a corrupt restore links
// a context twice.
func (st *chunkState) addWaiter(idx int, x *xlat) {
	x.waitNext = nil
	if st.waitTail[idx] == nil {
		st.waitHead[idx] = x
	} else {
		st.waitTail[idx].waitNext = x
	}
	st.waitTail[idx] = x
}

// hasWaiters reports whether any page of the chunk has queued waiters.
func (st *chunkState) hasWaiters() bool {
	for _, x := range st.waitHead {
		if x != nil {
			return true
		}
	}
	return false
}

// Stats aggregates the driver-level counters the evaluation reports.
type Stats struct {
	// Accesses is the number of Translate calls (post-coalesced accesses).
	Accesses uint64
	// L1THits/L2THits count TLB hits at each level.
	L1THits, L2THits uint64
	// Walks counts page-table walks started.
	Walks uint64
	// FaultEvents counts distinct far-fault service events (fault batches).
	FaultEvents uint64
	// MergedFaults counts faults that attached to an in-flight migration.
	MergedFaults uint64
	// MigratedPages / MigratedChunks count H2D migration traffic.
	MigratedPages  uint64
	MigratedChunks uint64
	// EvictedPages / EvictedChunks count capacity evictions.
	EvictedPages  uint64
	EvictedChunks uint64
	// DirtyPagesWrittenBack counts D2H write-back pages.
	DirtyPagesWrittenBack uint64
	// FaultRetries counts far-fault service attempts that transiently failed
	// and were retried with backoff (non-zero only under fault injection).
	FaultRetries uint64
	// PeakResidentPages tracks the high-water mark of GPU memory use
	// (the footprint, when capacity is unlimited).
	PeakResidentPages int

	// Breakdown attributes completed translations to the path they took
	// and accumulates each path's total latency, for the latency-breakdown
	// report.
	Breakdown Breakdown
}

// PathKind classifies how a translation was resolved.
type PathKind int

const (
	// PathL1Hit resolved in the SM's private L1 TLB.
	PathL1Hit PathKind = iota
	// PathL2Hit resolved in the shared L2 TLB.
	PathL2Hit
	// PathWalk required a page-table walk that found a valid mapping.
	PathWalk
	// PathFault required far-fault servicing (including merged faults that
	// waited on another fault's migration).
	PathFault
	pathCount
)

func (p PathKind) String() string {
	switch p {
	case PathL1Hit:
		return "L1-TLB"
	case PathL2Hit:
		return "L2-TLB"
	case PathWalk:
		return "walk"
	case PathFault:
		return "fault"
	default:
		return "?"
	}
}

// Breakdown is the per-path translation accounting.
type Breakdown struct {
	Count  [pathCount]uint64
	Cycles [pathCount]memdef.Cycle
}

// Share returns the fraction of translations resolved via path p.
func (b Breakdown) Share(p PathKind) float64 {
	var total uint64
	for _, c := range b.Count {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(b.Count[p]) / float64(total)
}

// AvgLatency returns the mean translation latency of path p in cycles.
func (b Breakdown) AvgLatency(p PathKind) float64 {
	if b.Count[p] == 0 {
		return 0
	}
	return float64(b.Cycles[p]) / float64(b.Count[p])
}

// xlat is one pooled in-flight translation. Contexts carry a stable registry
// ID, which is also the argument of their stage events (the manager's
// xlat*Fn callbacks), so a translation allocates nothing after the pool warms
// up, and every in-flight translation — and every event it has scheduled —
// can be serialized by ID and re-linked on checkpoint restore (see
// snapshot.go).
type xlat struct {
	id     uint64 // registry ID, stable for the manager's lifetime
	active bool
	sm     memdef.SMID
	page   memdef.PageNum
	write  bool
	start  memdef.Cycle
	done   func()
	// doneTag is the caller-supplied serializable description of done; the
	// machine re-links done from it on restore. Zero for legacy callers,
	// which makes an in-flight translation unserializable.
	doneTag engine.Tag
	next    *xlat
	// waitNext links the translation into its faulted page's waiter FIFO
	// (see chunkState.addWaiter).
	waitNext *xlat
	// walkDone is the walker's completion callback for this context, built
	// once when the context is first allocated.
	walkDone func(ptw.Result)
}

// migEntry is one in-flight migration in the registry: the planned pages,
// addressed by a stable migration ID carried in the service-latency and
// transfer-completion event tags.
type migEntry struct {
	plan   []memdef.PageNum
	active bool
}

// chunkMask pairs a chunk with the page mask migrated into it, for the
// deterministic per-chunk OnMigrate delivery.
type chunkMask struct {
	c    memdef.ChunkID
	mask memdef.PageBitmap
}

// ErrNoVictim reports that GPU memory filled to capacity with no evictable
// chunk (pathological tiny capacities); the run aborts gracefully instead of
// panicking, surfacing through Failure / Result.Err.
var ErrNoVictim = errors.New("uvm: GPU memory exhausted with nothing evictable")

// ErrFaultService reports that a far-fault service kept failing past the
// driver's bounded retry budget (only reachable under fault injection).
var ErrFaultService = errors.New("uvm: far-fault service failed after bounded retries")

// maxFaultAttempts is the driver's hard retry budget per fault; injected
// transient failures are bounded well below it, so it is a failsafe.
const maxFaultAttempts = 8

// Injector is the fault-injection hook set consulted at the xbus/UVM
// boundary (see package inject for the standard implementation). All methods
// must be deterministic functions of their call sequence.
type Injector interface {
	// CommitDelay returns extra cycles to delay a migration commit.
	CommitDelay() memdef.Cycle
	// HoldCommit reports whether to hold this commit until the next one
	// (reordered completion delivery).
	HoldCommit() bool
	// FailFaultAttempt reports whether the attempt-th (0-based) service
	// attempt of a far fault transiently fails.
	FailFaultAttempt(attempt int) bool
}

// Manager is the GMMU plus the UVM driver runtime.
type Manager struct {
	eng    *engine.Engine
	cfg    memdef.Config
	table  *pagetable.Table
	link   *xbus.Link
	policy evict.Policy
	pf     prefetch.Prefetcher

	l1tlbs  []*tlb.TLB
	l2tlb   *tlb.TLB
	l2ports *engine.Semaphore // Table I: the shared L2 TLB has 2 ports
	walker  *ptw.Walker

	capacityPages int // 0 = unlimited
	usedPages     int
	memoryFull    bool

	freeFrames []pagetable.FrameNum
	nextFrame  pagetable.FrameNum

	// chunkTab is the dense per-chunk state table: chunk c lives at
	// chunkTab[c-chunkBase]. Entries are carved out of chunkSlab on first
	// touch and kept (zeroed, waiters preserved) across evictions, so
	// pointers are stable.
	chunkBase memdef.ChunkID
	chunkTab  []*chunkState
	chunkSlab []chunkState

	// migSlots bounds concurrent fault-batch processing by the driver.
	migSlots *engine.Semaphore

	// Event callbacks, built once in New. Each takes its operand (a
	// translation ID, a faulted page or a migration ID) as the engine's
	// uint64 event argument, so neither translations nor the fault → migrate
	// → commit cycle schedule closures; restored events dispatch through the
	// same callbacks (ResolveEvent).
	xlatL1Fn      func(uint64) // TagXlatL1: probe translation arg's L1 TLB
	xlatL2GrantFn func(uint64) // TagXlatL2Grant: translation arg got an L2 TLB port
	xlatL2StageFn func(uint64) // TagXlatL2Stage: probe the L2 TLB, walk on miss
	xlatFaultFn   func(uint64) // TagXlatFault: translation arg's far fault was serviced
	faultFn       func(uint64) // TagProcessFault: service the claimed fault on page arg
	migSvcFn      func(uint64) // TagMigSvc: start migration arg's H2D transfer
	migXferFn     func(uint64) // TagMigXfer: commit migration arg
	// residentFn is the prefetcher's residency oracle and excludedFn the
	// eviction policy's victim filter; excludedFn skips excludeChunk, the
	// chunk of the fault being serviced.
	residentFn   func(memdef.PageNum) bool
	excludedFn   func(memdef.ChunkID) bool
	excludeChunk memdef.ChunkID

	// xlats is the translation-context registry, indexed by xlat.id;
	// xlatFree chains the inactive ones. Contexts are carved out of xlatSlab.
	xlats    []*xlat
	xlatFree *xlat
	xlatSlab []xlat
	// migs is the migration registry, indexed by migration ID; migFree holds
	// recyclable IDs (plan slices keep their capacity across reuse).
	migs    []*migEntry
	migFree []uint64
	migBuf  []chunkMask // commitMigration per-chunk grouping scratch

	footprintPages int
	aborted        bool
	failure        error

	// Conservation counters mirrored against the per-chunk bitmaps: the
	// auditor recounts the bitmaps and compares. residentPages+inflightPages
	// must always equal usedPages; pendingFaults counts claimed-but-unplanned
	// faults.
	residentPages int
	inflightPages int
	pendingFaults int

	// evictLog is the pattern window exposed through policy.MachineView: a
	// FIFO ring of the last WindowSize evictions (chunk, touch pattern,
	// untouch level, cycle). It is checkpointed machine state: view-driven
	// policies read it, so restores must reproduce it exactly.
	evictLog     [policy.WindowSize]policy.EvictionRecord
	evictLogNext int
	evictLogLen  int

	// aud, when non-nil, receives scoped transition checks at migration
	// commits and evictions (the periodic full checks are engine-driven).
	aud *audit.Auditor
	// inj, when non-nil, perturbs fault service and commit delivery.
	inj Injector
	// heldCommit is a commit held back by the injector for reordering;
	// heldGen guards the bounded-hold flush against releasing a later hold.
	heldCommit func()
	heldGen    uint64

	stats Stats
}

// New wires a Manager. walkMem is the memory path used by the page-table
// walker for PWC misses (typically the shared L2 cache + DRAM).
func New(eng *engine.Engine, cfg memdef.Config, link *xbus.Link, policy evict.Policy, pf prefetch.Prefetcher, walkMem ptw.MemAccessor) *Manager {
	m := &Manager{
		eng:           eng,
		cfg:           cfg,
		table:         pagetable.New(),
		link:          link,
		policy:        policy,
		pf:            pf,
		l2tlb:         tlb.New("l2tlb", cfg.L2TLBEntries, cfg.L2TLBWays),
		capacityPages: cfg.MemoryPages,
	}
	for i := 0; i < cfg.NumSMs; i++ {
		m.l1tlbs = append(m.l1tlbs, tlb.New(fmt.Sprintf("l1tlb-sm%d", i), cfg.L1TLBEntries, cfg.L1TLBEntries))
	}
	// Clamp driver concurrency so in-flight reservations (one chunk per
	// slot at most) can never exceed half of a finite capacity.
	slots := cfg.MaxConcurrentMigrations
	if slots <= 0 {
		slots = 1
	}
	if cfg.MemoryPages > 0 {
		if lim := cfg.MemoryPages / memdef.ChunkPages / 2; slots > lim {
			slots = lim
		}
		if slots < 1 {
			slots = 1
		}
	}
	m.migSlots = engine.NewSemaphore(eng, slots)
	ports := cfg.L2TLBPorts
	if ports <= 0 {
		ports = 1
	}
	m.l2ports = engine.NewSemaphore(eng, ports)
	m.walker = ptw.New(eng, cfg, m.table, walkMem)
	m.xlatL1Fn = m.xlatL1
	m.xlatL2GrantFn = m.xlatL2Grant
	m.xlatL2StageFn = m.xlatL2Stage
	m.xlatFaultFn = m.xlatFaultDone
	m.faultFn = func(page uint64) { m.serviceFault(memdef.PageNum(page), 0) }
	m.migSvcFn = m.migTransfer
	m.migXferFn = m.migArrived
	m.residentFn = m.isResidentOrInflight
	m.excludedFn = m.victimExcluded
	// View-driven policies get the narrow machine view bound exactly once,
	// before any event callback (see view.go).
	m.bindViews()
	return m
}

// SetFootprint tells the thrash detector the application's total footprint
// in pages (known after the discovery pass).
func (m *Manager) SetFootprint(pages int) { m.footprintPages = pages }

// Aborted reports whether the thrash detector fired (the modeled equivalent
// of the baseline crashes the paper observed for MVT and BICG) or the driver
// hit an unrecoverable failure (see Failure).
func (m *Manager) Aborted() bool { return m.aborted }

// Failure returns the typed driver failure that aborted the run (ErrNoVictim,
// ErrFaultService), or nil. Thrash aborts set Aborted without a failure.
func (m *Manager) Failure() error { return m.failure }

// fail records the first driver failure and aborts the run gracefully.
func (m *Manager) fail(err error) {
	if m.failure == nil {
		m.failure = err
	}
	m.aborted = true
}

// SetInjector arms fault injection at the xbus/UVM boundary. Chaos use only;
// must be called before any traffic.
func (m *Manager) SetInjector(inj Injector) { m.inj = inj }

// Abort fail-stops the run with err (first error wins). The machine uses it
// to stop simulating on detected state corruption: an integrity violation
// makes every later cycle meaningless, so the run ends with the structured
// error instead of simulating garbage.
func (m *Manager) Abort(err error) { m.fail(err) }

// MemoryFull reports whether GPU memory has filled to capacity.
func (m *Manager) MemoryFull() bool { return m.memoryFull }

// ResidentPages returns the current number of resident or reserved pages.
func (m *Manager) ResidentPages() int { return m.usedPages }

// slabSize is the number of chunk states or translation contexts allocated
// at once. Slabs are never moved, so every handed-out pointer stays valid.
const slabSize = 64

// newXlat builds a translation context with the next registry ID and its
// once-allocated walker callback.
func (m *Manager) newXlat() *xlat {
	if len(m.xlatSlab) == 0 {
		m.xlatSlab = make([]xlat, slabSize)
	}
	x := &m.xlatSlab[0]
	m.xlatSlab = m.xlatSlab[1:]
	x.id = uint64(len(m.xlats))
	x.walkDone = func(r ptw.Result) { m.walkDone(x, r) }
	m.xlats = append(m.xlats, x)
	return x
}

// xlatL1 runs after the L1 TLB latency: probe the L1 TLB.
func (m *Manager) xlatL1(id uint64) {
	x := m.xlats[id]
	if m.l1tlbs[x.sm].Lookup(x.page) {
		m.stats.L1THits++
		m.finish(x, PathL1Hit)
		return
	}
	// The shared L2 TLB has a bounded number of ports: an access holds one
	// for the lookup latency; excess lookups queue.
	m.l2ports.AcquireArgTagged(engine.Tag{Kind: TagXlatL2Grant, A: id}, m.xlatL2GrantFn, id)
}

// xlatL2Grant runs when an L2 TLB port is granted.
func (m *Manager) xlatL2Grant(id uint64) {
	m.eng.ScheduleArgTagged(m.cfg.L2TLBLatency, engine.Tag{Kind: TagXlatL2Stage, A: id}, m.xlatL2StageFn, id)
}

// xlatL2Stage runs after the L2 TLB latency: probe the L2 TLB, walk on miss.
func (m *Manager) xlatL2Stage(id uint64) {
	x := m.xlats[id]
	m.l2ports.Release()
	if m.l2tlb.Lookup(x.page) {
		m.stats.L2THits++
		m.insertL1(x.sm, x.page)
		m.finish(x, PathL2Hit)
		return
	}
	m.stats.Walks++
	m.walker.WalkT(x.page, engine.Tag{Kind: TagXlatWalkDone, A: id}, x.walkDone)
}

// walkDone completes x's page-table walk: a mapped page finishes the
// translation, an unmapped one raises a far fault.
func (m *Manager) walkDone(x *xlat, r ptw.Result) {
	if r.Mapped {
		m.l2tlb.Insert(x.page)
		m.insertL1(x.sm, x.page)
		m.finish(x, PathWalk)
		return
	}
	m.handleFault(x)
}

// xlatFaultDone resumes translation id once its faulted page is resident.
func (m *Manager) xlatFaultDone(id uint64) {
	x := m.xlats[id]
	m.l2tlb.Insert(x.page)
	m.insertL1(x.sm, x.page)
	m.finish(x, PathFault)
}

// getXlat pops (or builds) a translation context.
func (m *Manager) getXlat() *xlat {
	x := m.xlatFree
	if x == nil {
		x = m.newXlat()
	} else {
		m.xlatFree = x.next
		x.next = nil
	}
	x.active = true
	return x
}

// Translate resolves the virtual address of acc for SM sm and invokes done
// when a valid translation exists (after fault handling if necessary). The
// GPU-side touch bookkeeping happens at completion. Legacy untagged entry
// point (tests/tooling): an in-flight untagged translation makes the machine
// unserializable.
func (m *Manager) Translate(sm memdef.SMID, acc memdef.Access, done func()) {
	m.TranslateT(sm, acc, engine.Tag{}, done)
}

// TranslateT is Translate with a snapshot tag describing done, so the
// translation's pending completion can be re-linked on restore.
func (m *Manager) TranslateT(sm memdef.SMID, acc memdef.Access, doneTag engine.Tag, done func()) {
	m.stats.Accesses++
	x := m.getXlat()
	x.sm = sm
	x.page = acc.Addr.Page()
	x.write = acc.Kind == memdef.Write
	x.start = m.eng.Now()
	x.done = done
	x.doneTag = doneTag
	m.eng.ScheduleArgTagged(m.cfg.L1TLBLatency, engine.Tag{Kind: TagXlatL1, A: x.id}, m.xlatL1Fn, x.id)
}

// finish completes a translation: path accounting, touch/dirty bookkeeping,
// context recycling, and the caller's continuation.
func (m *Manager) finish(x *xlat, path PathKind) {
	m.stats.Breakdown.Count[path]++
	m.stats.Breakdown.Cycles[path] += m.eng.Now() - x.start
	m.recordTouch(x.page)
	if x.write {
		m.table.SetDirty(x.page)
	}
	done := x.done
	x.done = nil
	x.doneTag = engine.Tag{}
	x.active = false
	x.next = m.xlatFree
	m.xlatFree = x
	done()
}

// insertL1 fills sm's L1 TLB and records sm in the chunk's shootdown mask.
func (m *Manager) insertL1(sm memdef.SMID, page memdef.PageNum) {
	m.l1tlbs[sm].Insert(page)
	st := m.chunkState(page.Chunk())
	if sm < 64 {
		st.smMask |= 1 << uint(sm)
	} else {
		st.smMaskAll = true
	}
}

// recordTouch sets the touch bit on first access of a resident page and
// notifies the eviction policy.
func (m *Manager) recordTouch(page memdef.PageNum) {
	st := m.lookupChunk(page.Chunk())
	if st == nil {
		return
	}
	idx := page.Index()
	if !st.resident.Has(idx) || st.touched.Has(idx) {
		return
	}
	st.touched = st.touched.Set(idx)
	m.policy.OnTouch(page.Chunk(), idx)
}

// isResidentOrInflight is the prefetcher's residency oracle.
func (m *Manager) isResidentOrInflight(p memdef.PageNum) bool {
	st := m.lookupChunk(p.Chunk())
	if st == nil {
		return false
	}
	i := p.Index()
	return st.resident.Has(i) || st.inflight.Has(i)
}

// handleFault services translation x's far fault on x.page, resuming x
// (xlatFaultDone, tagged TagXlatFault) once the page is resident and mapped.
// Faults on pages already being migrated (or already claimed by a queued
// fault) merge; distinct faults queue for one of the driver's bounded
// fault-processing slots.
func (m *Manager) handleFault(x *xlat) {
	page := x.page
	st := m.chunkState(page.Chunk())
	idx := page.Index()
	if st.resident.Has(idx) || st.inflight.Has(idx) || st.pendingFault.Has(idx) {
		// Another fault is already responsible for this page: merge.
		m.stats.MergedFaults++
		st.addWaiter(idx, x)
		return
	}
	m.stats.FaultEvents++
	st.pendingFault = st.pendingFault.Set(idx)
	m.pendingFaults++
	st.addWaiter(idx, x)
	m.policy.OnFault(page.Chunk())
	m.migSlots.AcquireArgTagged(engine.Tag{Kind: TagProcessFault, A: uint64(page)}, m.faultFn, uint64(page))
}

// retryBackoff returns the driver's backoff before the (attempt+1)-th
// service attempt: a quarter of the fault service latency, doubling per
// attempt, capped at 4x the service latency.
func (m *Manager) retryBackoff(attempt int) memdef.Cycle {
	base := m.cfg.FaultServiceCycles() / 4
	if base == 0 {
		base = 1
	}
	b := base << uint(attempt)
	if max := base * 16; b > max {
		b = max
	}
	return b
}

// serviceFault plans and performs the migration for one claimed fault,
// retrying transient (injected) service failures with bounded exponential
// backoff before planning. It runs holding a driver slot, which is released
// when the migration commits. attempt counts transient service failures
// already retried for this fault.
func (m *Manager) serviceFault(page memdef.PageNum, attempt int) {
	if m.inj != nil && m.inj.FailFaultAttempt(attempt) {
		if attempt+1 >= maxFaultAttempts {
			// Retry budget exhausted: abort the run gracefully (failsafe;
			// injected failures are bounded below the budget).
			m.fail(ErrFaultService)
			m.migSlots.Release()
			return
		}
		m.stats.FaultRetries++
		m.eng.ScheduleTagged(m.retryBackoff(attempt),
			engine.Tag{Kind: TagFaultRetry, A: uint64(page), B: uint64(attempt + 1)},
			func() { m.serviceFault(page, attempt+1) })
		return
	}
	st := m.chunkState(page.Chunk())
	idx := page.Index()
	if st.pendingFault.Has(idx) {
		m.pendingFaults--
	}
	st.pendingFault = st.pendingFault.Clear(idx)
	if st.resident.Has(idx) || st.inflight.Has(idx) {
		// While this fault waited in the fault buffer, another migration
		// covered its page: the commit of that migration wakes the waiters
		// (or already did, if the page is fully resident).
		m.migSlots.Release()
		if st.resident.Has(idx) {
			m.wake(page)
		}
		return
	}

	plan := m.pf.Plan(page, prefetch.Context{
		Resident:   m.residentFn,
		MemoryFull: m.memoryFull,
	})
	// A plan may never exceed half the GPU memory (large tree-prefetch
	// expansions on small memories), or eviction could not make room.
	if m.capacityPages > 0 && len(plan) > m.capacityPages/2 {
		trimmed := make([]memdef.PageNum, 0, m.capacityPages/2)
		trimmed = append(trimmed, page)
		for _, p := range plan {
			if len(trimmed) >= m.capacityPages/2 {
				break
			}
			if p != page {
				trimmed = append(trimmed, p)
			}
		}
		plan = trimmed
	}

	// Make room. Evictions are decided synchronously (the driver unmaps
	// before it fills); the write-back transfer is charged asynchronously.
	if m.capacityPages > 0 {
		for m.usedPages+len(plan) > m.capacityPages {
			if !m.evictOne(page.Chunk()) {
				// Nothing evictable (pathological tiny capacity): shrink the
				// plan to just the faulted page and retry once.
				if len(plan) > 1 {
					plan = []memdef.PageNum{page}
					continue
				}
				// Still no room for a single page: abort this run with a
				// typed error instead of killing the whole sweep process.
				m.fail(ErrNoVictim)
				m.migSlots.Release()
				return
			}
		}
	}

	// Reserve frames and mark the plan in flight.
	m.usedPages += len(plan)
	m.inflightPages += len(plan)
	if m.usedPages > m.stats.PeakResidentPages {
		m.stats.PeakResidentPages = m.usedPages
	}
	if m.capacityPages > 0 && m.capacityPages-m.usedPages < memdef.ChunkPages {
		m.memoryFull = true
	}
	for _, p := range plan {
		st := m.chunkState(p.Chunk())
		st.inflight = st.inflight.Set(p.Index())
	}

	// Far-fault timing: fixed service latency (independent fault-handling
	// threads overlap), then the migration transfer serializes on the link.
	// The plan lives in the migration registry so both pending events carry
	// only the serializable migration ID.
	id := m.allocMig(plan)
	m.eng.ScheduleArgTagged(m.cfg.FaultServiceCycles(), engine.Tag{Kind: TagMigSvc, A: id}, m.migSvcFn, id)
}

// allocMig registers plan as an in-flight migration and returns its ID.
func (m *Manager) allocMig(plan []memdef.PageNum) uint64 {
	var id uint64
	if n := len(m.migFree); n > 0 {
		id = m.migFree[n-1]
		m.migFree = m.migFree[:n-1]
	} else {
		id = uint64(len(m.migs))
		m.migs = append(m.migs, &migEntry{})
	}
	mg := m.migs[id]
	mg.plan = append(mg.plan[:0], plan...)
	mg.active = true
	return id
}

// migTransfer starts migration id's H2D transfer after the fault-service
// latency has elapsed. The link books the transfer; the completion event is
// scheduled here, at the cycle the link returns, so it can carry the
// migration ID as its argument.
func (m *Manager) migTransfer(id uint64) {
	bytes := len(m.migs[id].plan) * memdef.PageBytes
	finish := m.link.Transfer(xbus.HostToDevice, bytes, nil)
	m.eng.ScheduleArgAtTagged(finish, engine.Tag{Kind: TagMigXfer, A: id}, m.migXferFn, id)
}

// migArrived commits migration id once its transfer completes (possibly
// perturbed by the injector).
func (m *Manager) migArrived(id uint64) {
	if m.inj == nil {
		m.commitMig(id)
		return
	}
	m.deliverCommit(func() { m.commitMig(id) })
}

// commitMig commits migration id, retires its registry entry and releases
// its driver slot.
func (m *Manager) commitMig(id uint64) {
	mg := m.migs[id]
	m.commitMigration(mg.plan)
	mg.active = false
	m.migFree = append(m.migFree, id)
	m.migSlots.Release()
}

// heldFlushCycles bounds how long the injector may hold a commit for
// reordering before it is force-delivered, so a hold at the tail of a run
// can never strand its migration (and the warps waiting on it).
const heldFlushCycles = memdef.Cycle(20_000)

// deliverCommit delivers a completed migration's commit under the armed
// injector's perturbations (extra delay, reordered delivery). Commits are
// order-independent — plans are disjoint and their frames already reserved —
// which is exactly what reordering exercises.
func (m *Manager) deliverCommit(commit func()) {
	if d := m.inj.CommitDelay(); d > 0 {
		engine.After(m.eng, d, func() { m.deliverReordered(commit) })
		return
	}
	m.deliverReordered(commit)
}

// deliverReordered applies the injector's hold-back reordering: a held
// commit is delivered after the next one, and a bounded flush guarantees a
// hold with no successor is still delivered.
func (m *Manager) deliverReordered(commit func()) {
	if held := m.heldCommit; held != nil {
		m.heldCommit = nil
		commit()
		held()
		return
	}
	if m.inj.HoldCommit() {
		m.heldCommit = commit
		m.heldGen++
		gen := m.heldGen
		engine.After(m.eng, heldFlushCycles, func() {
			if m.heldCommit != nil && m.heldGen == gen {
				c := m.heldCommit
				m.heldCommit = nil
				c()
			}
		})
		return
	}
	commit()
}

// wake schedules, in FIFO order, the fault completion of every translation
// waiting on page.
func (m *Manager) wake(page memdef.PageNum) {
	st := m.lookupChunk(page.Chunk())
	if st == nil {
		return
	}
	idx := page.Index()
	x := st.waitHead[idx]
	st.waitHead[idx], st.waitTail[idx] = nil, nil
	for x != nil {
		next := x.waitNext
		x.waitNext = nil
		// Zero-delay event keeps wake-up ordering deterministic.
		m.eng.ScheduleArgTagged(0, engine.Tag{Kind: TagXlatFault, A: x.id}, m.xlatFaultFn, x.id)
		x = next
	}
}

// lookupChunk returns the state for chunk c, or nil if c was never touched.
func (m *Manager) lookupChunk(c memdef.ChunkID) *chunkState {
	if c < m.chunkBase || c >= m.chunkBase+memdef.ChunkID(len(m.chunkTab)) {
		return nil
	}
	return m.chunkTab[c-m.chunkBase]
}

// chunkState returns (allocating if needed) the state for chunk c.
func (m *Manager) chunkState(c memdef.ChunkID) *chunkState {
	if len(m.chunkTab) == 0 {
		m.chunkBase = c
		m.chunkTab = make([]*chunkState, 1, 64)
	} else if c < m.chunkBase {
		// Grow downward: shift existing entries up, with headroom.
		pad := int(m.chunkBase-c) + len(m.chunkTab)
		grown := make([]*chunkState, int(m.chunkBase-c)+len(m.chunkTab), pad*2)
		copy(grown[m.chunkBase-c:], m.chunkTab)
		m.chunkTab = grown
		m.chunkBase = c
	} else if i := int(c - m.chunkBase); i >= len(m.chunkTab) {
		// Grow upward, amortized.
		need := i + 1
		if need <= cap(m.chunkTab) {
			m.chunkTab = m.chunkTab[:need]
		} else {
			grown := make([]*chunkState, need, need*2)
			copy(grown, m.chunkTab)
			m.chunkTab = grown
		}
	}
	st := m.chunkTab[c-m.chunkBase]
	if st == nil {
		st = m.newChunkState()
		m.chunkTab[c-m.chunkBase] = st
	}
	return st
}

// newChunkState carves a zeroed chunk state out of chunkSlab.
func (m *Manager) newChunkState() *chunkState {
	if len(m.chunkSlab) == 0 {
		m.chunkSlab = make([]chunkState, slabSize)
	}
	st := &m.chunkSlab[0]
	m.chunkSlab = m.chunkSlab[1:]
	return st
}

// commitMigration maps the migrated pages, updates policy/prefetcher state,
// and wakes the waiting warps.
func (m *Manager) commitMigration(plan []memdef.PageNum) {
	// Group by chunk to deliver one OnMigrate per chunk, in first-appearance
	// order of the plan (the historical map grouping iterated in map order,
	// which is randomized; plan order is the deterministic equivalent).
	byChunk := m.migBuf[:0]
	for _, p := range plan {
		if err := m.table.Map(p, m.allocFrame()); err != nil {
			// Double map: a driver integrity violation (the plan overlaps a
			// resident page). Fail-stop the run with an audit-class error
			// instead of simulating corrupted residency state.
			m.integrityFail("pagetable-map", "migration-commit", err)
			return
		}
		st := m.chunkState(p.Chunk())
		idx := p.Index()
		st.inflight = st.inflight.Clear(idx)
		st.resident = st.resident.Set(idx)
		c := p.Chunk()
		found := false
		for j := range byChunk {
			if byChunk[j].c == c {
				byChunk[j].mask = byChunk[j].mask.Set(idx)
				found = true
				break
			}
		}
		if !found {
			byChunk = append(byChunk, chunkMask{c: c, mask: memdef.PageBitmap(0).Set(idx)})
		}
	}
	m.inflightPages -= len(plan)
	m.residentPages += len(plan)
	m.stats.MigratedPages += uint64(len(plan))
	m.stats.MigratedChunks++
	for _, cm := range byChunk {
		m.policy.OnMigrate(cm.c, cm.mask)
	}
	m.migBuf = byChunk[:0]
	m.pf.OnMigrate(plan)
	m.auditTransition("migration-commit")
	for _, p := range plan {
		m.wake(p)
	}
}

// auditTransition runs the O(1) scoped conservation checks at a transition
// point (migration commit, eviction). The full O(n) recounts run only at the
// engine-driven periodic cadence, so transitions stay cheap.
func (m *Manager) auditTransition(trigger string) {
	if m.aud == nil {
		return
	}
	if m.residentPages+m.inflightPages != m.usedPages {
		m.aud.Report(audit.ClassCapacity, "uvm-conservation", trigger,
			fmt.Sprintf("resident (%d) + inflight (%d) != usedPages (%d)",
				m.residentPages, m.inflightPages, m.usedPages))
	}
	if m.capacityPages > 0 && m.usedPages > m.capacityPages {
		m.aud.Report(audit.ClassCapacity, "capacity-bound", trigger,
			fmt.Sprintf("usedPages (%d) exceeds capacity (%d)", m.usedPages, m.capacityPages))
	}
	if mapped := m.table.Mapped(); mapped != m.residentPages {
		m.aud.Report(audit.ClassCapacity, "pagetable-residency", trigger,
			fmt.Sprintf("page table maps %d pages, residency counter says %d", mapped, m.residentPages))
	}
	if m.pendingFaults < 0 {
		m.aud.Report(audit.ClassPendingFault, "pending-count", trigger,
			fmt.Sprintf("pending-fault counter negative: %d", m.pendingFaults))
	}
	if err := m.aud.Err(); err != nil && m.failure == nil {
		// Fail-stop: a violated invariant makes the rest of the run
		// meaningless.
		m.fail(err)
	}
}

// integrityFail fail-stops the run on a driver integrity violation err found
// at trigger: reported through the attached auditor (so chaos tests can
// assert its class and check name) as a structured *audit.IntegrityError, or
// recorded directly as the run failure when auditing is off. Either way the
// violation surfaces through Failure / Result.Err instead of panicking.
func (m *Manager) integrityFail(check, trigger string, err error) {
	if m.aud != nil {
		m.aud.Report(audit.ClassCapacity, check, trigger, err.Error())
		if aerr := m.aud.Err(); aerr != nil {
			m.fail(aerr)
			return
		}
	}
	m.fail(err)
}

// evictOne selects and evicts one victim chunk, returning false when no
// victim is available (or when the eviction hit an integrity violation and
// fail-stopped the run). excludeChunk is the chunk of the pending fault.
func (m *Manager) evictOne(excludeChunk memdef.ChunkID) bool {
	m.excludeChunk = excludeChunk
	victim, ok := m.policy.SelectVictim(m.excludedFn)
	if !ok {
		return false
	}
	return m.evictChunk(victim)
}

// victimExcluded is the eviction policy's victim filter: it rules out the
// chunk of the fault being serviced and chunks with nothing resident or with
// a migration in flight.
func (m *Manager) victimExcluded(c memdef.ChunkID) bool {
	if c == m.excludeChunk {
		return true
	}
	st := m.lookupChunk(c)
	return st == nil || st.inflight != 0 || st.resident == 0
}

// evictChunk unmaps every resident page of victim, shoots down TLBs, charges
// dirty write-back, and notifies the policy and prefetcher. It returns false
// without evicting when the victim violates the driver's residency
// invariants, fail-stopping the run with an audit-class integrity error.
func (m *Manager) evictChunk(victim memdef.ChunkID) bool {
	st := m.lookupChunk(victim)
	if st == nil || st.resident == 0 {
		m.integrityFail("evict-nonresident", "eviction",
			fmt.Errorf("uvm: evicting non-resident chunk %v", victim))
		return false
	}
	dirtyBytes := 0
	n := 0
	resident := st.resident
	for rem := resident; rem != 0; {
		idx := bits.TrailingZeros16(uint16(rem))
		rem &^= 1 << uint(idx)
		p := victim.Page(idx)
		pte, err := m.table.Unmap(p)
		if err != nil {
			// The page table and the residency bitmap disagree: fail-stop
			// before the books are cooked any further.
			m.integrityFail("pagetable-unmap", "eviction", err)
			return false
		}
		m.freeFrame(pte.Frame)
		if pte.Dirty {
			dirtyBytes += memdef.PageBytes
			m.stats.DirtyPagesWrittenBack++
		}
		m.l2tlb.Invalidate(p)
		n++
	}
	// L1 shootdowns only visit SMs that ever inserted a page of this chunk;
	// invalidation of an absent page is a no-op, so the over-approximate mask
	// changes no statistics, only the probes spent. InvalidateChunk batches
	// the whole chunk's shootdown into one scan per fully-associative L1.
	if st.smMaskAll {
		for _, l1 := range m.l1tlbs {
			l1.InvalidateChunk(victim, resident)
		}
	} else {
		for mask := st.smMask; mask != 0; {
			sm := bits.TrailingZeros64(mask)
			mask &^= 1 << uint(sm)
			if sm < len(m.l1tlbs) {
				m.l1tlbs[sm].InvalidateChunk(victim, resident)
			}
		}
	}
	untouch := (st.resident &^ st.touched).Count()
	touched := st.resident & st.touched
	m.usedPages -= n
	m.residentPages -= n
	m.stats.EvictedChunks++
	m.stats.EvictedPages += uint64(n)
	// Zero the residency state but keep the entry: pending faults and their
	// waiters (pages of this chunk still in the driver's fault buffer) must
	// survive the eviction, exactly as they did when they lived in separate
	// page-keyed tables.
	st.resident = 0
	st.touched = 0
	st.smMask = 0
	st.smMaskAll = false

	m.recordEviction(policy.EvictionRecord{
		Chunk: victim, Touched: touched, Untouch: untouch, Cycle: m.eng.Now(),
	})
	m.policy.OnEvicted(victim, untouch)
	m.pf.OnEvict(victim, touched, untouch)
	m.auditTransition("eviction")

	if dirtyBytes > 0 {
		m.link.Transfer(xbus.DeviceToHost, dirtyBytes, nil)
	}

	if m.cfg.ThrashAbortFactor > 0 && m.footprintPages > 0 &&
		m.stats.EvictedPages > uint64(m.cfg.ThrashAbortFactor)*uint64(m.footprintPages) {
		m.aborted = true
	}
	return true
}

func (m *Manager) allocFrame() pagetable.FrameNum {
	if n := len(m.freeFrames); n > 0 {
		f := m.freeFrames[n-1]
		m.freeFrames = m.freeFrames[:n-1]
		return f
	}
	f := m.nextFrame
	m.nextFrame++
	return f
}

func (m *Manager) freeFrame(f pagetable.FrameNum) {
	m.freeFrames = append(m.freeFrames, f)
}

// AttachAuditor registers the manager's invariant catalogue with a and wires
// its diagnostic snapshot. The registered checks are read-only full-state
// recounts meant for the engine's periodic cadence; the scoped O(1)
// transition checks (auditTransition) reuse the same auditor. Link transfer
// tracking is enabled so the link-inflight check has data.
func (m *Manager) AttachAuditor(a *audit.Auditor) {
	m.aud = a
	m.link.EnableTracking()
	a.SetSnapshot(m.auditSnapshot)
	a.Register(audit.ClassCapacity, "uvm-conservation", m.checkConservation)
	a.Register(audit.ClassChain, "chain-residency", m.checkChain)
	a.Register(audit.ClassTLB, "tlb-residency", m.checkTLB)
	a.Register(audit.ClassPendingFault, "pending-faults", m.checkPending)
	a.Register(audit.ClassLink, "link-inflight", m.link.CheckIntegrity)
}

// recount re-derives the conservation sums from the per-chunk bitmaps (the
// ground truth the mirrored counters must match).
func (m *Manager) recount() (resident, inflight, pending int) {
	for _, st := range m.chunkTab {
		if st == nil {
			continue
		}
		resident += st.resident.Count()
		inflight += st.inflight.Count()
		pending += st.pendingFault.Count()
	}
	return resident, inflight, pending
}

// checkConservation verifies resident/in-flight page conservation against the
// capacity accounting and the page table.
func (m *Manager) checkConservation() string {
	resident, inflight, _ := m.recount()
	switch {
	case resident != m.residentPages:
		return fmt.Sprintf("resident bitmap recount %d != counter %d", resident, m.residentPages)
	case inflight != m.inflightPages:
		return fmt.Sprintf("inflight bitmap recount %d != counter %d", inflight, m.inflightPages)
	case resident+inflight != m.usedPages:
		return fmt.Sprintf("resident (%d) + inflight (%d) != usedPages (%d)", resident, inflight, m.usedPages)
	case m.capacityPages > 0 && m.usedPages > m.capacityPages:
		return fmt.Sprintf("usedPages (%d) exceeds capacity (%d)", m.usedPages, m.capacityPages)
	case m.table.Mapped() != resident:
		return fmt.Sprintf("page table maps %d pages, resident recount is %d", m.table.Mapped(), resident)
	}
	return ""
}

// checkChain verifies the eviction policy's bookkeeping against residency:
// the tracked set must be exactly the chunks with resident pages.
func (m *Manager) checkChain() string {
	tr, ok := m.policy.(evict.Tracked)
	if !ok {
		return ""
	}
	tracked := tr.TrackedChunks()
	seen := make(map[memdef.ChunkID]bool, len(tracked))
	for _, c := range tracked {
		if seen[c] {
			return fmt.Sprintf("policy %q tracks chunk %d twice", m.policy.Name(), c)
		}
		seen[c] = true
		st := m.lookupChunk(c)
		if st == nil || st.resident == 0 {
			return fmt.Sprintf("policy %q tracks chunk %d with no resident pages", m.policy.Name(), c)
		}
	}
	for i, st := range m.chunkTab {
		if st == nil || st.resident == 0 {
			continue
		}
		if c := m.chunkBase + memdef.ChunkID(i); !seen[c] {
			return fmt.Sprintf("resident chunk %d not tracked by policy %q", c, m.policy.Name())
		}
	}
	return ""
}

// checkTLB verifies no L1/L2 TLB entry maps a non-resident page (a missed
// shootdown would let stale translations hide future far faults).
func (m *Manager) checkTLB() string {
	bad := ""
	scan := func(name string) func(memdef.PageNum) {
		return func(p memdef.PageNum) {
			if bad != "" {
				return
			}
			st := m.lookupChunk(p.Chunk())
			if st == nil || !st.resident.Has(p.Index()) {
				bad = fmt.Sprintf("%s maps non-resident page %d", name, p)
			}
		}
	}
	m.l2tlb.ForEachPage(scan("l2tlb"))
	for i, t := range m.l1tlbs {
		if bad != "" {
			break
		}
		t.ForEachPage(scan(fmt.Sprintf("l1tlb-sm%d", i)))
	}
	return bad
}

// checkPending verifies the fault-buffer invariants: the pending-fault bitmap
// population matches the claimed-fault counter, and every claimed page not
// covered by a migration still has waiters to wake.
func (m *Manager) checkPending() string {
	pending := 0
	for i, st := range m.chunkTab {
		if st == nil || st.pendingFault == 0 {
			continue
		}
		pending += st.pendingFault.Count()
		for rem := st.pendingFault; rem != 0; {
			idx := bits.TrailingZeros16(uint16(rem))
			rem &^= 1 << uint(idx)
			if st.resident.Has(idx) || st.inflight.Has(idx) {
				// Another fault's plan covered this claimed page; its commit
				// wakes the waiters.
				continue
			}
			if st.waitHead[idx] == nil {
				c := m.chunkBase + memdef.ChunkID(i)
				return fmt.Sprintf("pending fault on page %d has no waiters", c.Page(idx))
			}
		}
	}
	if pending != m.pendingFaults {
		return fmt.Sprintf("pending-fault bitmap recount %d != counter %d", pending, m.pendingFaults)
	}
	return ""
}

// auditSnapshot captures the diagnostic state dump attached to integrity
// errors: global accounting plus a bounded per-chunk bitmap dump.
func (m *Manager) auditSnapshot() audit.Snapshot {
	resident, inflight, pending := m.recount()
	s := audit.Snapshot{
		UsedPages:     m.usedPages,
		CapacityPages: m.capacityPages,
		ResidentPages: resident,
		InflightPages: inflight,
		PendingFaults: pending,
	}
	if tr, ok := m.policy.(evict.Tracked); ok {
		s.TrackedChunks = len(tr.TrackedChunks())
	}
	const maxDump = 16
	var b strings.Builder
	dumped := 0
	for i, st := range m.chunkTab {
		if st == nil || st.resident|st.inflight|st.pendingFault == 0 {
			continue
		}
		if dumped == maxDump {
			b.WriteString("... (dump truncated)")
			break
		}
		fmt.Fprintf(&b, "chunk %d: resident=%04x inflight=%04x pending=%04x touched=%04x\n",
			m.chunkBase+memdef.ChunkID(i), uint16(st.resident), uint16(st.inflight),
			uint16(st.pendingFault), uint16(st.touched))
		dumped++
	}
	s.Detail = strings.TrimRight(b.String(), "\n")
	return s
}

// CorruptKind selects a forced-corruption probe (see Corrupt).
type CorruptKind int

const (
	// CorruptAccounting inflates usedPages with no backing pages.
	CorruptAccounting CorruptKind = iota
	// CorruptResidentBit clears a resident bit behind the accounting's back.
	CorruptResidentBit
	// CorruptTLB inserts an L2 TLB entry for a never-resident page.
	CorruptTLB
	// CorruptChain makes the eviction policy forget a resident chunk.
	CorruptChain
	// CorruptPendingFault inflates the claimed-fault counter.
	CorruptPendingFault
)

// Corrupt deliberately breaks one invariant, returning the audit class whose
// checks must catch it and whether the corruption could be applied (probes
// needing resident state report false on an empty machine). Chaos tests use
// it to prove the auditor detects each corruption class; it has no other use.
func (m *Manager) Corrupt(kind CorruptKind) (audit.Class, bool) {
	switch kind {
	case CorruptAccounting:
		m.usedPages++
		return audit.ClassCapacity, true
	case CorruptResidentBit:
		for _, st := range m.chunkTab {
			if st == nil || st.resident == 0 {
				continue
			}
			idx := bits.TrailingZeros16(uint16(st.resident))
			st.resident = st.resident.Clear(idx)
			return audit.ClassCapacity, true
		}
		return audit.ClassCapacity, false
	case CorruptTLB:
		ghost := (m.chunkBase + memdef.ChunkID(len(m.chunkTab))).Page(0)
		m.l2tlb.Insert(ghost)
		return audit.ClassTLB, true
	case CorruptChain:
		for i, st := range m.chunkTab {
			if st == nil || st.resident == 0 {
				continue
			}
			m.policy.OnEvicted(m.chunkBase+memdef.ChunkID(i), 0)
			return audit.ClassChain, true
		}
		return audit.ClassChain, false
	case CorruptPendingFault:
		m.pendingFaults++
		return audit.ClassPendingFault, true
	}
	return "", false
}

// Stats returns a snapshot of the manager's counters.
func (m *Manager) Stats() Stats { return m.stats }

// Progress is an O(1) reading of the hot sweep counters — the subset of Stats
// the lockstep sweep driver folds into its per-worker delta accumulators at
// epoch boundaries. Readings are cumulative; subtract two to get a delta.
type Progress struct {
	Accesses      uint64
	FaultEvents   uint64
	MigratedPages uint64
	EvictedPages  uint64
}

// Progress returns the current cumulative sweep-progress counters.
func (m *Manager) Progress() Progress {
	return Progress{
		Accesses:      m.stats.Accesses,
		FaultEvents:   m.stats.FaultEvents,
		MigratedPages: m.stats.MigratedPages,
		EvictedPages:  m.stats.EvictedPages,
	}
}

// TLBStats returns (aggregated L1, L2) TLB statistics.
func (m *Manager) TLBStats() (l1 tlb.Stats, l2 tlb.Stats) {
	for _, t := range m.l1tlbs {
		s := t.Stats()
		l1.Hits += s.Hits
		l1.Misses += s.Misses
		l1.Evictions += s.Evictions
		l1.Shootdowns += s.Shootdowns
	}
	l1.Name = "l1tlb(all)"
	return l1, m.l2tlb.Stats()
}

// WalkerStats returns the page-table walker statistics.
func (m *Manager) WalkerStats() ptw.Stats { return m.walker.Stats() }

// Policy exposes the eviction policy (for policy-specific stats).
func (m *Manager) Policy() evict.Policy { return m.policy }

// Prefetcher exposes the prefetcher (for prefetcher-specific stats).
func (m *Manager) Prefetcher() prefetch.Prefetcher { return m.pf }
