package policy

import (
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// driveResident makes chunks 0..n-1 resident in the learned policy (fault +
// migrate, as the driver would).
func driveResident(l *Learned, n int) {
	for c := 0; c < n; c++ {
		l.OnFault(memdef.ChunkID(c))
		l.OnMigrate(memdef.ChunkID(c), memdef.FullBitmap)
	}
}

func noneExcluded(memdef.ChunkID) bool { return false }

// TestLearnedDegeneratesToOrderWithZeroSignal: with the seeded prior, less
// touched and more untouched candidates score higher; without any view or
// touches, the rank feature alone decides, and its negative weight prefers
// the LRU end.
func TestLearnedLRUPrior(t *testing.T) {
	l := NewLearned(1) // seed chosen so the first selections do not explore
	driveResident(l, 8)
	v, ok := l.SelectVictim(noneExcluded)
	if !ok {
		t.Fatal("no victim")
	}
	if v != 0 {
		t.Fatalf("victim = %v, want the LRU-most chunk 0", v)
	}
	if l.ChainLen() != 8 {
		t.Fatalf("ChainLen = %d", l.ChainLen())
	}
	l.OnEvicted(v, memdef.ChunkPages)
	if l.ChainLen() != 7 {
		t.Fatalf("ChainLen after evict = %d", l.ChainLen())
	}
}

// TestLearnedWrongEvictionDemotes: re-faulting a ringed eviction counts as
// wrong and moves the weights.
func TestLearnedWrongEvictionDemotes(t *testing.T) {
	l := NewLearned(1)
	driveResident(l, 8)
	v, ok := l.SelectVictim(noneExcluded)
	if !ok {
		t.Fatal("no victim")
	}
	l.OnEvicted(v, 4)
	before := l.Stats()
	if before.Evictions != 1 {
		t.Fatalf("Evictions = %d", before.Evictions)
	}
	l.OnFault(v) // the evicted chunk is needed again
	after := l.Stats()
	if after.WrongEvictions != 1 {
		t.Fatalf("WrongEvictions = %d", after.WrongEvictions)
	}
	if after.Demotions != 1 {
		t.Fatalf("Demotions = %d (weights should have moved inside the margin)", after.Demotions)
	}
	if after.Weights == before.Weights {
		t.Fatal("weights unchanged after a demotion")
	}
	// The same fault must not be double-counted.
	l.OnFault(v)
	if got := l.Stats().WrongEvictions; got != 1 {
		t.Fatalf("WrongEvictions after second fault = %d", got)
	}
}

// TestLearnedViewFeatures: with a view bound, untouched/pressure/recycled
// features come from machine state and steer the score.
func TestLearnedViewFeatures(t *testing.T) {
	l := NewLearned(1)
	view := &fakeView{
		resident: map[memdef.ChunkID]memdef.PageBitmap{},
		touched:  map[memdef.ChunkID]memdef.PageBitmap{},
		capacity: 64 * memdef.ChunkPages,
	}
	l.BindView(view)
	driveResident(l, 4)
	for c := 0; c < 4; c++ {
		view.resident[memdef.ChunkID(c)] = memdef.FullBitmap
	}
	// Chunk 1 is fully untouched; the prior's positive untouched weight
	// (+2 x 256) must outscore its rank-1 penalty (-4 x 64) and beat the
	// LRU-most chunk 0.
	for c := 0; c < 4; c++ {
		if c != 1 {
			view.touched[memdef.ChunkID(c)] = memdef.FullBitmap
		}
	}
	v, ok := l.SelectVictim(noneExcluded)
	if !ok {
		t.Fatal("no victim")
	}
	if v != 1 {
		t.Fatalf("victim = %v, want the fully-untouched chunk 1", v)
	}
}

// fakeView is a minimal MachineView for feature tests. Like the driver's
// view, it copies the window into one buffer that every call reuses.
type fakeView struct {
	resident map[memdef.ChunkID]memdef.PageBitmap
	touched  map[memdef.ChunkID]memdef.PageBitmap
	window   []EvictionRecord
	buf      [WindowSize]EvictionRecord
	capacity int
	cycle    memdef.Cycle
}

func (v *fakeView) Cycle() memdef.Cycle { return v.cycle }
func (v *fakeView) CapacityPages() int  { return v.capacity }
func (v *fakeView) ResidentPages() int {
	n := 0
	for _, bm := range v.resident {
		n += bm.Count()
	}
	return n
}
func (v *fakeView) MemoryFull() bool { return false }
func (v *fakeView) Resident(p memdef.PageNum) bool {
	return v.resident[p.Chunk()].Has(p.Index())
}
func (v *fakeView) ChunkResident(c memdef.ChunkID) memdef.PageBitmap { return v.resident[c] }
func (v *fakeView) ChunkTouched(c memdef.ChunkID) memdef.PageBitmap  { return v.touched[c] }
func (v *fakeView) RecentEvictions() []EvictionRecord {
	return v.buf[:copy(v.buf[:], v.window)]
}

// TestLearnedSelectVictimAllocFree: a victim selection with a bound view —
// candidate scan, the view's window and per-candidate features — allocates
// nothing once the policy and view are warm.
func TestLearnedSelectVictimAllocFree(t *testing.T) {
	l := NewLearned(1)
	view := &fakeView{
		resident: map[memdef.ChunkID]memdef.PageBitmap{},
		touched:  map[memdef.ChunkID]memdef.PageBitmap{},
		capacity: 64 * memdef.ChunkPages,
	}
	l.BindView(view)
	driveResident(l, 48)
	for c := 0; c < 48; c++ {
		view.resident[memdef.ChunkID(c)] = memdef.FullBitmap
		view.touched[memdef.ChunkID(c)] = memdef.PageBitmap(c)
	}
	for c := 0; c < WindowSize; c++ {
		view.window = append(view.window, EvictionRecord{Chunk: memdef.ChunkID(2 * c), Untouch: c % 17})
	}
	selectOne := func() {
		if _, ok := l.SelectVictim(noneExcluded); !ok {
			t.Fatal("no victim")
		}
	}
	if a := testing.AllocsPerRun(100, selectOne); a != 0 {
		t.Errorf("SelectVictim with a bound view: %v allocs per call, want 0", a)
	}
}
