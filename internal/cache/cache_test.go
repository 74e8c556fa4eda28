package cache

import (
	"testing"
	"testing/quick"

	"github.com/reproductions/cppe/internal/memdef"
)

func TestGeometryPanics(t *testing.T) {
	cases := []struct{ cap, ways, line int }{
		{0, 4, 64}, {1024, 0, 64}, {1024, 4, 0},
		{1024, 4, 100}, // non power-of-two line
		{1024, 4, 2},   // line too small to leave the key's two state bits
		{100, 16, 64},  // lines not divisible by ways
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d,%d) did not panic", c.cap, c.ways, c.line)
				}
			}()
			New("x", c.cap, c.ways, c.line)
		}()
	}
}

func TestTableIGeometries(t *testing.T) {
	l1 := New("l1", 48<<10, 6, 128)
	if l1.Sets() != 64 || l1.Ways() != 6 {
		t.Fatalf("L1 geometry = %dx%d", l1.Sets(), l1.Ways())
	}
	l2 := New("l2", 3<<20, 16, 128)
	if l2.Sets() != 1536 || l2.Ways() != 16 {
		t.Fatalf("L2 geometry = %dx%d", l2.Sets(), l2.Ways())
	}
	pwc := New("pwc", 8<<10, 16, 8)
	if pwc.Sets() != 64 || pwc.Ways() != 16 {
		t.Fatalf("PWC geometry = %dx%d", pwc.Sets(), pwc.Ways())
	}
}

func TestMissThenHit(t *testing.T) {
	c := New("c", 1024, 4, 64)
	if r := c.Access(0x100, memdef.Read); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x100, memdef.Read); !r.Hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if r := c.Access(0x13f, memdef.Read); !r.Hit {
		t.Fatal("same-line access missed")
	}
	// Next line.
	if r := c.Access(0x140, memdef.Read); r.Hit {
		t.Fatal("adjacent line falsely hit")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDirtyVictimWriteback(t *testing.T) {
	// Direct-ish: 1 way, 2 sets, line 64 -> capacity 128.
	c := New("c", 128, 1, 64)
	c.Access(0x000, memdef.Write)     // set 0, dirty
	r := c.Access(0x080, memdef.Read) // set 0 again, evicts dirty line
	if r.Hit || !r.WritebackVictim {
		t.Fatalf("expected miss with writeback, got %+v", r)
	}
	// Clean victim: read-only line displaced.
	c.Access(0x000, memdef.Read)
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1", got)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// One set, 2 ways.
	c := New("c", 128, 2, 64)
	c.Access(0x000, memdef.Read) // A
	c.Access(0x080, memdef.Read) // B (same set: only one set exists)
	c.Access(0x000, memdef.Read) // touch A
	c.Access(0x100, memdef.Read) // C evicts B
	if !c.Probe(0x000) {
		t.Fatal("A wrongly evicted")
	}
	if c.Probe(0x080) {
		t.Fatal("B should have been the LRU victim")
	}
	if !c.Probe(0x100) {
		t.Fatal("C missing")
	}
}

func TestInvalidatePage(t *testing.T) {
	c := New("c", 64<<10, 8, 128)
	page := memdef.PageNum(3)
	// Fill several lines of page 3 and one line elsewhere.
	for off := 0; off < memdef.PageBytes; off += 128 {
		c.Access(page.Addr()+memdef.VirtAddr(off), memdef.Write)
	}
	c.Access(0x0, memdef.Read)
	dropped := c.InvalidatePage(page)
	if dropped != memdef.PageBytes/128 {
		t.Fatalf("dropped = %d, want %d", dropped, memdef.PageBytes/128)
	}
	for off := 0; off < memdef.PageBytes; off += 128 {
		if c.Probe(page.Addr() + memdef.VirtAddr(off)) {
			t.Fatal("line survived page invalidation")
		}
	}
	if !c.Probe(0x0) {
		t.Fatal("unrelated line dropped")
	}
	// Idempotent.
	if c.InvalidatePage(page) != 0 {
		t.Fatal("second invalidation dropped lines")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := New("c", 128, 2, 64)
	c.Access(0x000, memdef.Read)
	c.Access(0x080, memdef.Read)
	for i := 0; i < 5; i++ {
		c.Probe(0x000)
	}
	c.Access(0x100, memdef.Read) // LRU is still 0x000
	if c.Probe(0x000) {
		t.Fatal("Probe refreshed LRU state")
	}
	if h := c.Stats().Hits; h != 0 {
		t.Fatalf("Probe counted as hit: %d", h)
	}
}

func TestHitRateProperty(t *testing.T) {
	// Re-accessing an address immediately must always hit.
	c := New("c", 4096, 4, 64)
	f := func(a uint32) bool {
		addr := memdef.VirtAddr(a)
		c.Access(addr, memdef.Read)
		return c.Access(addr, memdef.Read).Hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialStreamEvictsItself(t *testing.T) {
	// Streaming through 4x the cache capacity: second pass over the first
	// quarter must miss again (LRU, no magic retention).
	c := New("c", 1024, 4, 64)
	for a := memdef.VirtAddr(0); a < 4096; a += 64 {
		c.Access(a, memdef.Read)
	}
	if r := c.Access(0, memdef.Read); r.Hit {
		t.Fatal("line 0 survived a 4x-capacity stream")
	}
}
