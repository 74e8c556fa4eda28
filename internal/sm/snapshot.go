package sm

import (
	"fmt"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/snapshot"
)

// Checkpointable reports whether the machine's state can be serialized: the
// driver must be in a clean, uninjected state (see uvm.Checkpointable), and
// every pending event must carry a snapshot tag (enforced during encoding).
func (m *Machine) Checkpointable() error {
	return m.MMU.Checkpointable()
}

// EncodeTo writes the complete machine state into w. The machine must be
// paused at an event boundary (between Eng.Run calls); the engine queue is
// written last so it closes over every component's restored registries.
func (m *Machine) EncodeTo(w *snapshot.Writer) {
	w.Mark("MACH")
	if err := m.Checkpointable(); err != nil {
		w.Fail(err)
		return
	}
	m.Eng.EncodeState(w)
	m.L2.Encode(w)
	m.DRAM.Encode(w)
	m.Link.Encode(w)
	m.MMU.Encode(w)

	// Shared L2/DRAM request registry.
	w.Mark("MEMP")
	w.PutU64(uint64(len(m.mp.reqs)))
	active := 0
	for _, rq := range m.mp.reqs {
		if rq.active {
			active++
		}
	}
	w.PutU64(uint64(active))
	for _, rq := range m.mp.reqs { // registry order = id order
		if !rq.active {
			continue
		}
		if rq.tag.Kind == 0 {
			w.Fail(fmt.Errorf("%w (memory request %d)", engine.ErrUntagged, rq.id))
			return
		}
		w.PutU64(rq.id)
		w.PutU64(uint64(rq.a))
		w.PutU8(uint8(rq.kind))
		w.PutU16(rq.tag.Kind)
		w.PutU64(rq.tag.A)
		w.PutU64(rq.tag.B)
	}

	// Warps and SMs.
	w.Mark("WARP")
	w.PutU64(uint64(len(m.allWarps)))
	for _, wp := range m.allWarps {
		w.PutU64(uint64(len(wp.trace)))
		w.PutInt(wp.pos)
		w.PutU64(uint64(wp.acc.Addr))
		w.PutU8(uint8(wp.acc.Kind))
		w.PutU64(uint64(wp.issue))
	}
	w.PutU64(uint64(len(m.SMs)))
	for _, s := range m.SMs {
		s.l1.Encode(w)
		w.PutU64(s.accessesDone)
		w.PutU64(uint64(s.stallCycles))
	}
	w.PutInt(m.activeWarps)
	w.PutBool(m.started)

	// The event queue last: its resolver closures reference everything above.
	m.Eng.EncodeQueue(w)
}

// DecodeFrom restores the machine from the frame written by EncodeTo. The
// machine must be freshly constructed from the same configuration, policy,
// prefetcher, and traces; mismatches surface as structured decode errors.
func (m *Machine) DecodeFrom(r *snapshot.Reader) {
	r.ExpectMark("MACH")
	if m.started {
		r.Failf("sm: restore into a machine that already ran")
		return
	}
	m.Eng.DecodeState(r)
	m.L2.Decode(r)
	m.DRAM.Decode(r)
	m.Link.Decode(r)
	m.MMU.Decode(r, m.linkXlatDone)

	// Shared L2/DRAM request registry.
	r.ExpectMark("MEMP")
	total := r.GetCount(1)
	activeN := r.GetCount(1)
	if r.Err() != nil {
		return
	}
	if activeN > total {
		r.Failf("sm: %d active memory requests out of %d contexts", activeN, total)
		return
	}
	for len(m.mp.reqs) < total {
		m.mp.newReq()
	}
	seen := make([]bool, total)
	for i := 0; i < activeN; i++ {
		id := r.GetU64()
		if r.Err() != nil {
			return
		}
		if id >= uint64(total) || seen[id] {
			r.Failf("sm: bad or duplicate memory request id %d", id)
			return
		}
		seen[id] = true
		rq := m.mp.reqs[id]
		rq.active = true
		rq.a = memdef.VirtAddr(r.GetU64())
		rq.kind = memdef.AccessKind(r.GetU8())
		rq.tag = engine.Tag{Kind: r.GetU16(), A: r.GetU64(), B: r.GetU64()}
		if r.Err() != nil {
			return
		}
		done, err := m.resolveEvent(rq.tag)
		if err != nil {
			r.Fail(fmt.Errorf("%w: memory request %d: %v", snapshot.ErrCorrupt, id, err))
			return
		}
		rq.done = done
	}
	m.mp.free = nil
	for i := total - 1; i >= 0; i-- {
		if !m.mp.reqs[i].active {
			m.mp.reqs[i].next = m.mp.free
			m.mp.free = m.mp.reqs[i]
		}
	}

	// Warps and SMs.
	r.ExpectMark("WARP")
	if n := r.GetCount(1); r.Err() == nil && n != len(m.allWarps) {
		r.Failf("sm: %d warps in checkpoint, %d loaded", n, len(m.allWarps))
		return
	}
	for _, wp := range m.allWarps {
		if tl := r.GetCount(1); r.Err() == nil && tl != len(wp.trace) {
			r.Failf("sm: warp %d trace length %d in checkpoint, %d loaded", wp.gid, tl, len(wp.trace))
			return
		}
		wp.pos = r.GetInt()
		wp.acc = memdef.Access{Addr: memdef.VirtAddr(r.GetU64()), Kind: memdef.AccessKind(r.GetU8())}
		wp.issue = memdef.Cycle(r.GetU64())
		if r.Err() != nil {
			return
		}
		if wp.pos < 0 || wp.pos > len(wp.trace) {
			r.Failf("sm: warp %d position %d out of range", wp.gid, wp.pos)
			return
		}
	}
	if n := r.GetCount(1); r.Err() == nil && n != len(m.SMs) {
		r.Failf("sm: %d SMs in checkpoint, %d configured", n, len(m.SMs))
		return
	}
	for _, s := range m.SMs {
		s.l1.Decode(r)
		s.accessesDone = r.GetU64()
		s.stallCycles = memdef.Cycle(r.GetU64())
	}
	m.activeWarps = r.GetInt()
	if r.Err() == nil && (m.activeWarps < 0 || m.activeWarps > len(m.allWarps)) {
		r.Failf("sm: active warp count %d out of range", m.activeWarps)
		return
	}
	m.started = r.GetBool()

	m.Eng.DecodeQueue(r, m.resolveEvent)
}

// linkXlatDone maps a translation done tag back to the owning warp's
// translated callback (the MMU's decode link pass).
func (m *Machine) linkXlatDone(tag engine.Tag) (func(), error) {
	if tag.Kind != TagWarpXlat {
		return nil, fmt.Errorf("sm: translation done tag has kind %#04x", tag.Kind)
	}
	w, err := m.warpByTag(tag)
	if err != nil {
		return nil, err
	}
	return w.translated, nil
}

// warpByTag returns the warp tag.A references.
func (m *Machine) warpByTag(tag engine.Tag) (*warp, error) {
	if tag.A >= uint64(len(m.allWarps)) {
		return nil, fmt.Errorf("sm: tag %#04x references warp %d of %d", tag.Kind, tag.A, len(m.allWarps))
	}
	return m.allWarps[tag.A], nil
}

// resolveEvent is the machine's queue resolver: SM kinds resolve locally,
// driver and walker kinds delegate to the MMU.
func (m *Machine) resolveEvent(tag engine.Tag) (func(), error) {
	switch tag.Kind {
	case TagWarpStep:
		if tag.A >= uint64(len(m.allWarps)) {
			return nil, fmt.Errorf("sm: step tag references warp %d of %d", tag.A, len(m.allWarps))
		}
		gid := tag.A
		return func() { m.stepWarp(gid) }, nil
	case TagWarpL1:
		w, err := m.warpByTag(tag)
		if err != nil {
			return nil, err
		}
		return w.l1Stage, nil
	case TagWarpFin:
		w, err := m.warpByTag(tag)
		if err != nil {
			return nil, err
		}
		return w.finished, nil
	case TagMemL2:
		if tag.A >= uint64(len(m.mp.reqs)) {
			return nil, fmt.Errorf("sm: tag references memory request %d of %d", tag.A, len(m.mp.reqs))
		}
		rq := m.mp.reqs[tag.A]
		if !rq.active {
			return nil, fmt.Errorf("sm: tag references inactive memory request %d", tag.A)
		}
		return rq.run, nil
	}
	if k := tag.Kind >> 8; k == 0x02 || k == 0x03 {
		return m.MMU.ResolveEvent(tag)
	}
	return nil, fmt.Errorf("sm: unknown event tag kind %#04x", tag.Kind)
}

// SnapshotTo appends the paused machine's framed checkpoint to w in place,
// so a caller can nest it inside its own frame without copying.
func (m *Machine) SnapshotTo(w *snapshot.Writer) {
	off := w.BeginFrame()
	m.EncodeTo(w)
	w.EndFrame(off)
}

// Restore rebuilds machine state from a framed checkpoint written by
// SnapshotTo, then audits the result: the cross-module conservation invariants
// must hold for the restored state before it is allowed to run. The receiver
// must be freshly constructed from the same configuration, policy,
// prefetcher, and traces. On error the machine must be discarded: state may
// be partially restored.
func (m *Machine) Restore(data []byte) error {
	r, err := snapshot.Open(data)
	if err != nil {
		return err
	}
	m.DecodeFrom(r)
	if err := r.Err(); err != nil {
		return err
	}
	if err := r.Close(); err != nil {
		return err
	}
	if err := m.MMU.VerifyRestored(); err != nil {
		return fmt.Errorf("%w: post-restore audit: %v", snapshot.ErrCorrupt, err)
	}
	return nil
}
