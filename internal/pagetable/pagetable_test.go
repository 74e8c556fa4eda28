package pagetable

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/reproductions/cppe/internal/memdef"
)

func TestMapLookupUnmap(t *testing.T) {
	pt := New()
	p := memdef.PageNum(0x12345)
	if pt.IsMapped(p) {
		t.Fatal("fresh table maps page")
	}
	pt.Map(p, 7)
	if got := pt.Lookup(p); got != 7 {
		t.Fatalf("Lookup = %d, want 7", got)
	}
	if pt.Mapped() != 1 {
		t.Fatalf("Mapped = %d", pt.Mapped())
	}
	pte, err := pt.Unmap(p)
	if err != nil {
		t.Fatal(err)
	}
	if pte.Frame != 7 || pte.Dirty {
		t.Fatalf("Unmap PTE = %+v", pte)
	}
	if pt.IsMapped(p) || pt.Mapped() != 0 {
		t.Fatal("page still mapped after Unmap")
	}
}

func TestFrameZeroIsValid(t *testing.T) {
	pt := New()
	pt.Map(42, 0)
	if !pt.IsMapped(42) {
		t.Fatal("frame 0 treated as unmapped")
	}
	if pt.Lookup(42) != 0 {
		t.Fatal("frame 0 lookup wrong")
	}
}

func TestDoubleMapError(t *testing.T) {
	pt := New()
	if err := pt.Map(1, 1); err != nil {
		t.Fatal(err)
	}
	err := pt.Map(1, 2)
	if !errors.Is(err, ErrDoubleMap) {
		t.Errorf("double Map error = %v, want ErrDoubleMap", err)
	}
	// The first mapping must survive the rejected remap.
	if got := pt.Lookup(1); got != 1 {
		t.Errorf("Lookup after rejected remap = %d, want 1", got)
	}
}

func TestUnmapUnmappedError(t *testing.T) {
	pt := New()
	_, err := pt.Unmap(99)
	if !errors.Is(err, ErrUnmapUnmapped) {
		t.Errorf("Unmap of unmapped page error = %v, want ErrUnmapUnmapped", err)
	}
}

func TestDirtyTracking(t *testing.T) {
	pt := New()
	pt.Map(5, 50)
	if pt.IsDirty(5) {
		t.Fatal("fresh mapping dirty")
	}
	pt.SetDirty(5)
	if !pt.IsDirty(5) {
		t.Fatal("SetDirty lost")
	}
	pte, err := pt.Unmap(5)
	if err != nil {
		t.Fatal(err)
	}
	if !pte.Dirty {
		t.Fatal("Unmap dropped dirty bit")
	}
	// SetDirty on unmapped page is a harmless no-op.
	pt.SetDirty(5)
	if pt.IsDirty(5) {
		t.Fatal("SetDirty resurrected unmapped page")
	}
}

func TestNeighborIsolation(t *testing.T) {
	// Pages sharing all but the last level index must not interfere.
	pt := New()
	base := memdef.PageNum(0x40000)
	for i := 0; i < 512; i++ {
		pt.Map(base+memdef.PageNum(i), FrameNum(i))
	}
	for i := 0; i < 512; i++ {
		if got := pt.Lookup(base + memdef.PageNum(i)); got != FrameNum(i) {
			t.Fatalf("Lookup(%d) = %d", i, got)
		}
	}
	pt.Unmap(base + 100)
	if pt.IsMapped(base + 100) {
		t.Fatal("unmap failed")
	}
	if !pt.IsMapped(base+99) || !pt.IsMapped(base+101) {
		t.Fatal("unmap disturbed neighbors")
	}
}

func TestMapLookupProperty(t *testing.T) {
	pt := New()
	seen := map[memdef.PageNum]FrameNum{}
	f := func(raw uint64, frame uint32) bool {
		p := memdef.PageNum(raw & (1<<36 - 1))
		if _, ok := seen[p]; ok {
			return pt.Lookup(p) == seen[p]
		}
		pt.Map(p, FrameNum(frame))
		seen[p] = FrameNum(frame)
		return pt.Lookup(p) == FrameNum(frame) && pt.Mapped() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWalkPathShape(t *testing.T) {
	pt := New()
	p := memdef.PageNum(0x1_2345_6789 & (1<<36 - 1))

	// Before mapping: the root exists, deeper nodes do not, so the walk
	// stops after the first non-present entry (1 access).
	steps := pt.WalkPath(p)
	if len(steps) != 1 || steps[0].Level != Levels-1 {
		t.Fatalf("unmapped walk steps = %+v", steps)
	}

	pt.Map(p, 3)
	steps = pt.WalkPath(p)
	if len(steps) != Levels {
		t.Fatalf("mapped walk has %d steps, want %d", len(steps), Levels)
	}
	for i, s := range steps {
		if s.Level != Levels-1-i {
			t.Fatalf("step %d level = %d", i, s.Level)
		}
	}
	// Entry addresses must be distinct across levels.
	addrs := map[memdef.VirtAddr]bool{}
	for _, s := range steps {
		if addrs[s.EntryAddr] {
			t.Fatalf("duplicate entry address in walk: %+v", steps)
		}
		addrs[s.EntryAddr] = true
	}
}

func TestWalkPathSharesUpperLevels(t *testing.T) {
	pt := New()
	a := memdef.PageNum(0x1000)
	b := memdef.PageNum(0x1001) // same leaf node, adjacent entries
	pt.Map(a, 1)
	pt.Map(b, 2)
	sa, sb := pt.WalkPath(a), pt.WalkPath(b)
	for i := 0; i < Levels-1; i++ {
		if sa[i].EntryAddr != sb[i].EntryAddr {
			t.Fatalf("level %d entries differ for adjacent pages", sa[i].Level)
		}
	}
	if sa[Levels-1].EntryAddr == sb[Levels-1].EntryAddr {
		t.Fatal("leaf entries identical for distinct pages")
	}
}

func TestWalkPathStableAcrossCalls(t *testing.T) {
	pt := New()
	rng := rand.New(rand.NewSource(1))
	pages := make([]memdef.PageNum, 100)
	for i := range pages {
		pages[i] = memdef.PageNum(rng.Uint64() & (1<<36 - 1))
		pt.Map(pages[i], FrameNum(i))
	}
	for _, p := range pages {
		s1, s2 := pt.WalkPath(p), pt.WalkPath(p)
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("walk path unstable for %v", p)
			}
		}
	}
}

func TestManyMappingsStress(t *testing.T) {
	pt := New()
	rng := rand.New(rand.NewSource(42))
	ref := map[memdef.PageNum]FrameNum{}
	for i := 0; i < 20000; i++ {
		p := memdef.PageNum(rng.Uint64() & (1<<30 - 1))
		if f, ok := ref[p]; ok {
			if rng.Intn(2) == 0 {
				got, err := pt.Unmap(p)
				if err != nil {
					t.Fatal(err)
				}
				if got.Frame != f {
					t.Fatalf("Unmap(%v).Frame = %d, want %d", p, got.Frame, f)
				}
				delete(ref, p)
			}
			continue
		}
		f := FrameNum(rng.Uint64()) & MaxFrame
		if err := pt.Map(p, f); err != nil {
			t.Fatal(err)
		}
		ref[p] = f
	}
	if pt.Mapped() != len(ref) {
		t.Fatalf("Mapped = %d, want %d", pt.Mapped(), len(ref))
	}
	for p, f := range ref {
		if pt.Lookup(p) != f {
			t.Fatalf("Lookup(%v) = %d, want %d", p, pt.Lookup(p), f)
		}
	}
}

// TestLeafWordRoundTrip maps frame 0 and MaxFrame into neighbouring words of
// one leaf node and dirties the frame-0 page, and checks that every query
// reads back exactly its own word: the dirty bit does not show in frame 0,
// MaxFrame's all-ones frame does not read as dirty, and nothing bleeds into
// a neighbour.
func TestLeafWordRoundTrip(t *testing.T) {
	pt := New()
	base := memdef.PageNum(0x7_0000) // page index 0 of a leaf node
	lo, hi, gap := base+1, base+2, base+3
	if err := pt.Map(lo, 0); err != nil {
		t.Fatal(err)
	}
	if err := pt.Map(hi, MaxFrame); err != nil {
		t.Fatal(err)
	}
	pt.SetDirty(lo)
	pt.SetDirty(gap) // unmapped: a no-op

	for _, c := range []struct {
		p      memdef.PageNum
		frame  FrameNum
		mapped bool
		dirty  bool
	}{
		{base, InvalidFrame, false, false},
		{lo, 0, true, true},
		{hi, MaxFrame, true, false},
		{gap, InvalidFrame, false, false},
	} {
		if got := pt.Lookup(c.p); got != c.frame {
			t.Errorf("Lookup(%#x) = %d, want %d", c.p, got, c.frame)
		}
		if got := pt.IsMapped(c.p); got != c.mapped {
			t.Errorf("IsMapped(%#x) = %v, want %v", c.p, got, c.mapped)
		}
		if got := pt.IsDirty(c.p); got != c.dirty {
			t.Errorf("IsDirty(%#x) = %v, want %v", c.p, got, c.dirty)
		}
	}

	pte, err := pt.Unmap(lo)
	if err != nil || pte != (PTE{Frame: 0, Dirty: true}) {
		t.Fatalf("Unmap(lo) = %+v, %v; want frame 0, dirty", pte, err)
	}
	pte, err = pt.Unmap(hi)
	if err != nil || pte != (PTE{Frame: MaxFrame}) {
		t.Fatalf("Unmap(hi) = %+v, %v; want frame MaxFrame, clean", pte, err)
	}
	// A remap starts clean: Unmap cleared the whole word.
	if err := pt.Map(lo, 5); err != nil {
		t.Fatal(err)
	}
	if pt.IsDirty(lo) || pt.Lookup(lo) != 5 || pt.Mapped() != 1 {
		t.Fatalf("remapped page: dirty %v, frame %d, mapped %d", pt.IsDirty(lo), pt.Lookup(lo), pt.Mapped())
	}
}

// TestResetRemapAllocatesNothing: a reset table hands its retained directory
// and leaf nodes out again, so remapping the same page set — spread over
// several leaf and directory nodes — allocates nothing, and walks see the
// same node IDs as on the first use.
func TestResetRemapAllocatesNothing(t *testing.T) {
	pt := New()
	var pages []memdef.PageNum
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			pages = append(pages, memdef.PageNum(i)<<18|memdef.PageNum(i)<<9|memdef.PageNum(j))
		}
	}
	mapAll := func() {
		pt.Reset()
		for i, p := range pages {
			if err := pt.Map(p, FrameNum(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	mapAll()
	first := pt.WalkPath(pages[len(pages)-1])
	if a := testing.AllocsPerRun(10, mapAll); a != 0 {
		t.Fatalf("remapping %d pages after Reset: %v allocs, want 0", len(pages), a)
	}
	again := pt.WalkPath(pages[len(pages)-1])
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("walk step %d after reset = %+v, first use %+v", i, again[i], first[i])
		}
	}
}
