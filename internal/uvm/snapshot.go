package uvm

import (
	"errors"
	"fmt"

	"github.com/reproductions/cppe/internal/audit"
	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/pagetable"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/ptw"
	"github.com/reproductions/cppe/internal/snapshot"
)

// ErrNotCheckpointable reports machine state a checkpoint cannot represent:
// an armed fault injector (its closure-held perturbation state is
// deliberately outside the snapshot contract), a failed or aborted run, or a
// commit held back for chaos reordering.
var ErrNotCheckpointable = errors.New("uvm: state not checkpointable")

// Checkpointable reports whether the manager's state can be serialized.
func (m *Manager) Checkpointable() error {
	switch {
	case m.inj != nil:
		return fmt.Errorf("%w: fault injection armed", ErrNotCheckpointable)
	case m.failure != nil:
		return fmt.Errorf("%w: run failed (%v)", ErrNotCheckpointable, m.failure)
	case m.aborted:
		return fmt.Errorf("%w: run aborted", ErrNotCheckpointable)
	case m.heldCommit != nil:
		return fmt.Errorf("%w: commit held for reordering", ErrNotCheckpointable)
	}
	return nil
}

// Encode writes the complete driver state: the translation and migration
// registries, the GMMU structures (TLBs, walker, page table), capacity and
// conservation accounting, the per-chunk state table with its tagged waiters,
// the statistics, and the eviction-policy / prefetcher state.
func (m *Manager) Encode(w *snapshot.Writer) {
	w.Mark("UVM ")
	if err := m.Checkpointable(); err != nil {
		w.Fail(err)
		return
	}

	// Translation registry (first: semaphore waiters and walker links below
	// reference translations by ID).
	w.PutU64(uint64(len(m.xlats)))
	active := 0
	for _, x := range m.xlats {
		if x.active {
			active++
		}
	}
	w.PutU64(uint64(active))
	for _, x := range m.xlats { // registry order = id order
		if !x.active {
			continue
		}
		if x.doneTag.Kind == 0 {
			w.Fail(fmt.Errorf("%w (uvm translation %d for page %v)", engine.ErrUntagged, x.id, x.page))
			return
		}
		w.PutU64(x.id)
		w.PutU64(uint64(x.sm))
		w.PutU64(uint64(x.page))
		w.PutBool(x.write)
		w.PutU64(uint64(x.start))
		w.PutU16(x.doneTag.Kind)
		w.PutU64(x.doneTag.A)
		w.PutU64(x.doneTag.B)
	}

	// Migration registry.
	w.PutU64(uint64(len(m.migs)))
	activeMigs := 0
	for _, mg := range m.migs {
		if mg.active {
			activeMigs++
		}
	}
	w.PutU64(uint64(activeMigs))
	for id, mg := range m.migs {
		if !mg.active {
			continue
		}
		w.PutU64(uint64(id))
		w.PutU64(uint64(len(mg.plan)))
		for _, p := range mg.plan {
			w.PutU64(uint64(p))
		}
	}

	m.l2ports.Encode(w)
	m.migSlots.Encode(w)
	m.walker.Encode(w)
	m.table.Encode(w)
	w.PutU64(uint64(len(m.l1tlbs)))
	for _, t := range m.l1tlbs {
		t.Encode(w)
	}
	m.l2tlb.Encode(w)

	// Capacity and conservation accounting.
	w.PutInt(m.capacityPages)
	w.PutInt(m.usedPages)
	w.PutBool(m.memoryFull)
	w.PutU64(uint64(len(m.freeFrames)))
	for _, f := range m.freeFrames {
		w.PutU64(uint64(f))
	}
	w.PutU64(uint64(m.nextFrame))
	w.PutInt(m.footprintPages)
	w.PutInt(m.residentPages)
	w.PutInt(m.inflightPages)
	w.PutInt(m.pendingFaults)
	w.PutU64(m.heldGen)

	// Per-chunk state table.
	w.Mark("CHKT")
	w.PutU64(uint64(m.chunkBase))
	w.PutU64(uint64(len(m.chunkTab)))
	for _, st := range m.chunkTab {
		if st == nil {
			w.PutBool(false)
			continue
		}
		w.PutBool(true)
		w.PutU16(uint16(st.resident))
		w.PutU16(uint16(st.inflight))
		w.PutU16(uint16(st.touched))
		w.PutU16(uint16(st.pendingFault))
		w.PutU64(st.smMask)
		w.PutBool(st.smMaskAll)
		if !st.hasWaiters() {
			w.PutBool(false)
			continue
		}
		w.PutBool(true)
		for idx := 0; idx < memdef.ChunkPages; idx++ {
			n := 0
			for x := st.waitHead[idx]; x != nil; x = x.waitNext {
				n++
			}
			w.PutU64(uint64(n))
			for x := st.waitHead[idx]; x != nil; x = x.waitNext {
				w.PutU16(TagXlatFault)
				w.PutU64(x.id)
				w.PutU64(0)
			}
		}
	}

	// Statistics (bit-for-bit Result equality needs every counter).
	w.Mark("UVMS")
	w.PutU64(m.stats.Accesses)
	w.PutU64(m.stats.L1THits)
	w.PutU64(m.stats.L2THits)
	w.PutU64(m.stats.Walks)
	w.PutU64(m.stats.FaultEvents)
	w.PutU64(m.stats.MergedFaults)
	w.PutU64(m.stats.MigratedPages)
	w.PutU64(m.stats.MigratedChunks)
	w.PutU64(m.stats.EvictedPages)
	w.PutU64(m.stats.EvictedChunks)
	w.PutU64(m.stats.DirtyPagesWrittenBack)
	w.PutU64(m.stats.FaultRetries)
	w.PutInt(m.stats.PeakResidentPages)
	for p := 0; p < int(pathCount); p++ {
		w.PutU64(m.stats.Breakdown.Count[p])
		w.PutU64(uint64(m.stats.Breakdown.Cycles[p]))
	}

	// Pattern window (policy.MachineView.RecentEvictions). View-driven
	// policies read it, so restores must reproduce the ring exactly.
	w.Mark("EVLG")
	w.PutInt(m.evictLogNext)
	w.PutInt(m.evictLogLen)
	for _, rec := range m.evictLog {
		w.PutU64(uint64(rec.Chunk))
		w.PutU16(uint16(rec.Touched))
		w.PutInt(rec.Untouch)
		w.PutU64(uint64(rec.Cycle))
	}

	// Policy and prefetcher state. Names are cross-checks against the
	// restoring setup's construction.
	w.PutString(m.policy.Name())
	ps, ok := m.policy.(evict.Snapshotter)
	if !ok {
		w.Fail(fmt.Errorf("%w: policy %q has no snapshot support", ErrNotCheckpointable, m.policy.Name()))
		return
	}
	ps.EncodeState(w)
	w.PutString(m.pf.Name())
	fs, ok := m.pf.(prefetch.Snapshotter)
	if !ok {
		w.Fail(fmt.Errorf("%w: prefetcher %q has no snapshot support", ErrNotCheckpointable, m.pf.Name()))
		return
	}
	fs.EncodeState(w)
}

// Decode restores the manager from the frame written by Encode. The manager
// must be freshly constructed with the same configuration, policy, and
// prefetcher. linkDone maps each in-flight translation's done tag back to its
// completion callback (the machine supplies it from its warp table). Decode
// must run before the engine queue decode so ResolveEvent can find the
// contexts.
func (m *Manager) Decode(r *snapshot.Reader, linkDone func(tag engine.Tag) (func(), error)) {
	r.ExpectMark("UVM ")
	if len(m.xlats) != 0 || len(m.migs) != 0 || len(m.chunkTab) != 0 {
		r.Failf("uvm: decode into a used manager")
		return
	}

	// Translation registry.
	total := r.GetCount(1)
	activeN := r.GetCount(1)
	if r.Err() != nil {
		return
	}
	if activeN > total {
		r.Failf("uvm: %d active translations out of %d contexts", activeN, total)
		return
	}
	for len(m.xlats) < total {
		m.newXlat()
	}
	seen := make([]bool, total)
	for i := 0; i < activeN; i++ {
		id := r.GetU64()
		if r.Err() != nil {
			return
		}
		if id >= uint64(total) || seen[id] {
			r.Failf("uvm: bad or duplicate translation id %d", id)
			return
		}
		seen[id] = true
		x := m.xlats[id]
		x.active = true
		x.sm = memdef.SMID(r.GetU64())
		x.page = memdef.PageNum(r.GetU64())
		x.write = r.GetBool()
		x.start = memdef.Cycle(r.GetU64())
		x.doneTag = engine.Tag{Kind: r.GetU16(), A: r.GetU64(), B: r.GetU64()}
		if r.Err() != nil {
			return
		}
		done, err := linkDone(x.doneTag)
		if err != nil {
			r.Fail(fmt.Errorf("%w: uvm translation %d: %v", snapshot.ErrCorrupt, id, err))
			return
		}
		x.done = done
	}
	// Free-chain the inactive contexts in descending id order, so getXlat
	// hands them out in ascending order — the same order a fresh manager
	// would allocate them.
	m.xlatFree = nil
	for i := total - 1; i >= 0; i-- {
		if !m.xlats[i].active {
			m.xlats[i].next = m.xlatFree
			m.xlatFree = m.xlats[i]
		}
	}

	// Migration registry.
	migTotal := r.GetCount(1)
	migActive := r.GetCount(1)
	if r.Err() != nil {
		return
	}
	if migActive > migTotal {
		r.Failf("uvm: %d active migrations out of %d entries", migActive, migTotal)
		return
	}
	for len(m.migs) < migTotal {
		m.newMig()
	}
	migSeen := make([]bool, migTotal)
	for i := 0; i < migActive; i++ {
		id := r.GetU64()
		if r.Err() != nil {
			return
		}
		if id >= uint64(migTotal) || migSeen[id] {
			r.Failf("uvm: bad or duplicate migration id %d", id)
			return
		}
		migSeen[id] = true
		mg := m.migs[id]
		mg.active = true
		n := r.GetCount(8)
		for j := 0; j < n; j++ {
			mg.plan = append(mg.plan, memdef.PageNum(r.GetU64()))
		}
	}
	m.migFree = m.migFree[:0]
	for i := migTotal - 1; i >= 0; i-- {
		if !m.migs[i].active {
			m.migFree = append(m.migFree, uint64(i))
		}
	}

	m.l2ports.Decode(r, m.ResolveEvent)
	m.migSlots.Decode(r, m.ResolveEvent)
	m.walker.Decode(r, m.linkWalkDone)
	m.table.Decode(r)
	nTLB := r.GetCount(1)
	if r.Err() != nil {
		return
	}
	if nTLB != len(m.l1tlbs) {
		r.Failf("uvm: %d L1 TLBs in checkpoint, %d configured", nTLB, len(m.l1tlbs))
		return
	}
	for _, t := range m.l1tlbs {
		t.Decode(r)
	}
	m.l2tlb.Decode(r)

	// Capacity and conservation accounting.
	if c := r.GetInt(); r.Err() == nil && c != m.capacityPages {
		r.Failf("uvm: capacity %d pages in checkpoint, %d configured", c, m.capacityPages)
		return
	}
	m.usedPages = r.GetInt()
	m.memoryFull = r.GetBool()
	nFree := r.GetCount(8)
	for i := 0; i < nFree; i++ {
		m.freeFrames = append(m.freeFrames, pagetable.FrameNum(r.GetU64()))
	}
	m.nextFrame = pagetable.FrameNum(r.GetU64())
	m.footprintPages = r.GetInt()
	m.residentPages = r.GetInt()
	m.inflightPages = r.GetInt()
	m.pendingFaults = r.GetInt()
	m.heldGen = r.GetU64()

	// Per-chunk state table.
	r.ExpectMark("CHKT")
	m.chunkBase = memdef.ChunkID(r.GetU64())
	nChunks := r.GetCount(1)
	if r.Err() != nil {
		return
	}
	m.chunkTab = make([]*chunkState, nChunks)
	waiting := make([]bool, total)
	for i := 0; i < nChunks; i++ {
		if !r.GetBool() {
			continue
		}
		st := m.newChunkState()
		m.chunkTab[i] = st
		st.resident = memdef.PageBitmap(r.GetU16())
		st.inflight = memdef.PageBitmap(r.GetU16())
		st.touched = memdef.PageBitmap(r.GetU16())
		st.pendingFault = memdef.PageBitmap(r.GetU16())
		st.smMask = r.GetU64()
		st.smMaskAll = r.GetBool()
		if !r.GetBool() {
			continue
		}
		for idx := 0; idx < memdef.ChunkPages; idx++ {
			nw := r.GetCount(18)
			for j := 0; j < nw; j++ {
				tag := engine.Tag{Kind: r.GetU16(), A: r.GetU64(), B: r.GetU64()}
				if r.Err() != nil {
					return
				}
				if tag.Kind != TagXlatFault {
					r.Failf("uvm: waiter tag has kind %#04x", tag.Kind)
					return
				}
				x, err := m.xlatByTag(tag)
				if err != nil {
					r.Fail(fmt.Errorf("%w: uvm waiter: %v", snapshot.ErrCorrupt, err))
					return
				}
				if waiting[x.id] {
					r.Failf("uvm: translation %d waits on two pages", x.id)
					return
				}
				waiting[x.id] = true
				st.addWaiter(idx, x)
			}
		}
	}

	// Statistics.
	r.ExpectMark("UVMS")
	m.stats.Accesses = r.GetU64()
	m.stats.L1THits = r.GetU64()
	m.stats.L2THits = r.GetU64()
	m.stats.Walks = r.GetU64()
	m.stats.FaultEvents = r.GetU64()
	m.stats.MergedFaults = r.GetU64()
	m.stats.MigratedPages = r.GetU64()
	m.stats.MigratedChunks = r.GetU64()
	m.stats.EvictedPages = r.GetU64()
	m.stats.EvictedChunks = r.GetU64()
	m.stats.DirtyPagesWrittenBack = r.GetU64()
	m.stats.FaultRetries = r.GetU64()
	m.stats.PeakResidentPages = r.GetInt()
	for p := 0; p < int(pathCount); p++ {
		m.stats.Breakdown.Count[p] = r.GetU64()
		m.stats.Breakdown.Cycles[p] = memdef.Cycle(r.GetU64())
	}

	// Pattern window.
	r.ExpectMark("EVLG")
	next := r.GetInt()
	ringLen := r.GetInt()
	if r.Err() != nil {
		return
	}
	if next < 0 || next >= len(m.evictLog) || ringLen < 0 || ringLen > len(m.evictLog) {
		r.Failf("uvm: eviction log cursor %d/%d out of range", next, ringLen)
		return
	}
	m.evictLogNext = next
	m.evictLogLen = ringLen
	for i := range m.evictLog {
		m.evictLog[i].Chunk = memdef.ChunkID(r.GetU64())
		m.evictLog[i].Touched = memdef.PageBitmap(r.GetU16())
		m.evictLog[i].Untouch = r.GetInt()
		m.evictLog[i].Cycle = memdef.Cycle(r.GetU64())
	}

	// Policy and prefetcher.
	if name := r.GetString(); r.Err() == nil && name != m.policy.Name() {
		r.Failf("uvm: policy %q in checkpoint, %q configured", name, m.policy.Name())
		return
	}
	ps, ok := m.policy.(evict.Snapshotter)
	if !ok {
		r.Failf("uvm: policy %q has no snapshot support", m.policy.Name())
		return
	}
	ps.DecodeState(r)
	if name := r.GetString(); r.Err() == nil && name != m.pf.Name() {
		r.Failf("uvm: prefetcher %q in checkpoint, %q configured", name, m.pf.Name())
		return
	}
	fs, ok := m.pf.(prefetch.Snapshotter)
	if !ok {
		r.Failf("uvm: prefetcher %q has no snapshot support", m.pf.Name())
		return
	}
	fs.DecodeState(r)
}

// linkWalkDone maps a walker done tag back to the owning translation's
// walkDone callback (walker.Decode's link pass).
func (m *Manager) linkWalkDone(tag engine.Tag) (func(ptw.Result), error) {
	if tag.Kind != TagXlatWalkDone {
		return nil, fmt.Errorf("uvm: walk done tag has kind %#04x", tag.Kind)
	}
	x, err := m.xlatByTag(tag)
	if err != nil {
		return nil, err
	}
	return x.walkDone, nil
}

// xlatByTag returns the active translation context tag.A references.
func (m *Manager) xlatByTag(tag engine.Tag) (*xlat, error) {
	if tag.A >= uint64(len(m.xlats)) {
		return nil, fmt.Errorf("uvm: tag %#04x references translation %d of %d", tag.Kind, tag.A, len(m.xlats))
	}
	x := m.xlats[tag.A]
	if !x.active {
		return nil, fmt.Errorf("uvm: tag %#04x references inactive translation %d", tag.Kind, tag.A)
	}
	return x, nil
}

// migByTag returns the active migration ID tag.A references.
func (m *Manager) migByTag(tag engine.Tag) (uint64, error) {
	if tag.A >= uint64(len(m.migs)) {
		return 0, fmt.Errorf("uvm: tag %#04x references migration %d of %d", tag.Kind, tag.A, len(m.migs))
	}
	if !m.migs[tag.A].active {
		return 0, fmt.Errorf("uvm: tag %#04x references inactive migration %d", tag.Kind, tag.A)
	}
	return tag.A, nil
}

// ResolveEvent maps a driver event tag back to its callback; the machine's
// queue resolver delegates driver and walker kinds here. Unknown kinds, bad
// IDs, or inactive contexts produce a structured error.
func (m *Manager) ResolveEvent(tag engine.Tag) (func(), error) {
	if tag.Kind>>8 == 0x02 { // walker kinds
		return m.walker.ResolveEvent(tag)
	}
	switch tag.Kind {
	case TagXlatL1, TagXlatL2Grant, TagXlatL2Stage, TagXlatFault:
		x, err := m.xlatByTag(tag)
		if err != nil {
			return nil, err
		}
		fn := m.xlatL1Fn
		switch tag.Kind {
		case TagXlatL2Grant:
			fn = m.xlatL2GrantFn
		case TagXlatL2Stage:
			fn = m.xlatL2StageFn
		case TagXlatFault:
			fn = m.xlatFaultFn
		}
		return func() { fn(x.id) }, nil
	case TagProcessFault:
		return func() { m.faultFn(tag.A) }, nil
	case TagFaultRetry:
		page := memdef.PageNum(tag.A)
		attempt := int(tag.B)
		if attempt < 0 || attempt >= maxFaultAttempts {
			return nil, fmt.Errorf("uvm: fault retry attempt %d out of range", attempt)
		}
		return func() { m.serviceFault(page, attempt) }, nil
	case TagMigSvc, TagMigXfer:
		id, err := m.migByTag(tag)
		if err != nil {
			return nil, err
		}
		fn := m.migSvcFn
		if tag.Kind == TagMigXfer {
			fn = m.migXferFn
		}
		return func() { fn(id) }, nil
	default:
		return nil, fmt.Errorf("uvm: unknown event tag kind %#04x", tag.Kind)
	}
}

// VerifyRestored runs the cross-module conservation invariants (the same
// read-only recounts the periodic integrity auditor uses) against freshly
// restored state, returning the first violation. A checkpoint that passes the
// CRC and every structural decode check but encodes an inconsistent machine —
// possible only through an encoder bug or a forged file — is caught here
// instead of being simulated to a corrupt Result. The link-inflight check is
// omitted: transfer tracking is an opt-in auditing mode whose records cannot
// be reconstructed retroactively for transfers already in flight.
func (m *Manager) VerifyRestored() error {
	a := audit.New()
	a.SetClock(m.eng.Now)
	a.SetSnapshot(m.auditSnapshot)
	a.Register(audit.ClassCapacity, "uvm-conservation", m.checkConservation)
	a.Register(audit.ClassChain, "chain-residency", m.checkChain)
	a.Register(audit.ClassTLB, "tlb-residency", m.checkTLB)
	a.Register(audit.ClassPendingFault, "pending-faults", m.checkPending)
	a.CheckNow("restore")
	return a.Err()
}
