package memdef

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestAddressDecomposition(t *testing.T) {
	cases := []struct {
		addr  VirtAddr
		page  PageNum
		chunk ChunkID
		off   uint64
		idx   int
	}{
		{0, 0, 0, 0, 0},
		{1, 0, 0, 1, 0},
		{PageBytes, 1, 0, 0, 1},
		{PageBytes - 1, 0, 0, PageBytes - 1, 0},
		{ChunkBytes, 16, 1, 0, 0},
		{ChunkBytes + 3*PageBytes + 7, 19, 1, 7, 3},
		{0x7fff_ffff_f000, 0x7_ffff_ffff, 0x7fff_ffff, 0, 15},
	}
	for _, c := range cases {
		if got := c.addr.Page(); got != c.page {
			t.Errorf("%v.Page() = %v, want %v", c.addr, got, c.page)
		}
		if got := c.addr.Chunk(); got != c.chunk {
			t.Errorf("%v.Chunk() = %v, want %v", c.addr, got, c.chunk)
		}
		if got := c.addr.Offset(); got != c.off {
			t.Errorf("%v.Offset() = %v, want %v", c.addr, got, c.off)
		}
		if got := c.addr.Page().Index(); got != c.idx {
			t.Errorf("%v.Page().Index() = %v, want %v", c.addr, got, c.idx)
		}
	}
}

func TestPageChunkRoundTrip(t *testing.T) {
	f := func(raw uint64) bool {
		p := PageNum(raw & (1<<36 - 1))
		c := p.Chunk()
		// The page must lie inside its chunk's page range.
		if p < c.FirstPage() || p >= c.FirstPage()+ChunkPages {
			return false
		}
		// Reconstructing the page from (chunk, index) must round-trip.
		return c.Page(p.Index()) == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChunkAddrAlignment(t *testing.T) {
	f := func(raw uint64) bool {
		c := ChunkID(raw & (1<<32 - 1))
		a := c.Addr()
		return a.Offset() == 0 && a.Chunk() == c && a.Page() == c.FirstPage()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageBitmapBasics(t *testing.T) {
	var b PageBitmap
	if b.Count() != 0 {
		t.Fatalf("empty bitmap Count = %d", b.Count())
	}
	b = b.Set(0).Set(15).Set(7)
	if !b.Has(0) || !b.Has(7) || !b.Has(15) || b.Has(1) {
		t.Fatalf("bitmap membership wrong: %v", b)
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
	b = b.Clear(7)
	if b.Has(7) || b.Count() != 2 {
		t.Fatalf("Clear failed: %v", b)
	}
	if FullBitmap.Count() != ChunkPages {
		t.Fatalf("FullBitmap.Count = %d", FullBitmap.Count())
	}
}

func TestPageBitmapCountMatchesOnesCount(t *testing.T) {
	f := func(v uint16) bool {
		return PageBitmap(v).Count() == bits.OnesCount16(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageBitmapSetClearInverse(t *testing.T) {
	f := func(v uint16, i uint8) bool {
		idx := int(i) % ChunkPages
		b := PageBitmap(v)
		if b.Set(idx).Clear(idx).Has(idx) {
			return false
		}
		return b.Clear(idx).Set(idx).Has(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageBitmapString(t *testing.T) {
	b := PageBitmap(0).Set(0).Set(2)
	if got := b.String(); got != "0000000000000101" {
		t.Fatalf("String = %q", got)
	}
}
