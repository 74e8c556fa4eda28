package uvm

import (
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/policy"
)

// machineView is the driver's implementation of policy.MachineView: a
// read-only window over the manager handed to view-driven policies. Every
// method is a pure observation of driver state — the view exposes no
// mutators, and the one buffer it hands out (RecentEvictions) is a copy, so
// a policy cannot perturb the machine through it.
type machineView struct {
	m *Manager
}

var _ policy.MachineView = machineView{}

// Cycle implements policy.MachineView.
func (v machineView) Cycle() memdef.Cycle { return v.m.eng.Now() }

// CapacityPages implements policy.MachineView.
func (v machineView) CapacityPages() int { return v.m.capacityPages }

// ResidentPages implements policy.MachineView.
func (v machineView) ResidentPages() int { return v.m.usedPages }

// MemoryFull implements policy.MachineView.
func (v machineView) MemoryFull() bool { return v.m.memoryFull }

// Resident implements policy.MachineView.
func (v machineView) Resident(p memdef.PageNum) bool { return v.m.isResidentOrInflight(p) }

// ChunkResident implements policy.MachineView.
func (v machineView) ChunkResident(c memdef.ChunkID) memdef.PageBitmap {
	if st := v.m.lookupChunk(c); st != nil {
		return st.resident
	}
	return 0
}

// ChunkTouched implements policy.MachineView.
func (v machineView) ChunkTouched(c memdef.ChunkID) memdef.PageBitmap {
	if st := v.m.lookupChunk(c); st != nil {
		return st.touched
	}
	return 0
}

// RecentEvictions implements policy.MachineView: the driver's pattern
// window copied oldest-first into the manager's window buffer, which every
// call reuses and overwrites.
func (v machineView) RecentEvictions() []policy.EvictionRecord {
	m := v.m
	if m.evictLogLen == 0 {
		return nil
	}
	// The ring holds its oldest record at start; the records from there to
	// the end of the array come first, those before it after.
	start := m.evictLogNext - m.evictLogLen
	if start < 0 {
		start += len(m.evictLog)
	}
	n := copy(m.window[:], m.evictLog[start:min(start+m.evictLogLen, len(m.evictLog))])
	copy(m.window[n:], m.evictLog[:m.evictLogLen-n])
	return m.window[:m.evictLogLen]
}

// View returns the manager's policy.MachineView — the same view bound to
// view-driven policies at construction (tests, diagnostics).
func (m *Manager) View() policy.MachineView { return machineView{m} }

// bindViews hands the machine view to the policy and prefetcher if they ask
// for one (policy.ViewBinder). Called once from New, before the first event.
func (m *Manager) bindViews() {
	if vb, ok := m.policy.(policy.ViewBinder); ok {
		vb.BindView(machineView{m})
	}
	if vb, ok := m.pf.(policy.ViewBinder); ok {
		vb.BindView(machineView{m})
	}
}

// recordEviction appends one record to the bounded pattern window.
func (m *Manager) recordEviction(rec policy.EvictionRecord) {
	m.evictLog[m.evictLogNext] = rec
	m.evictLogNext = (m.evictLogNext + 1) % len(m.evictLog)
	if m.evictLogLen < len(m.evictLog) {
		m.evictLogLen++
	}
}
