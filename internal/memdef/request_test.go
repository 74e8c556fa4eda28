package memdef

import (
	"testing"
	"unsafe"
)

func TestAccessKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("kind strings")
	}
}

func TestRequestPage(t *testing.T) {
	r := &Request{Access: Access{Addr: PageNum(7).Addr() + 123}}
	if r.Page() != 7 {
		t.Fatalf("Page = %v", r.Page())
	}
}

// TestOpRoundTrip: PackAccess and Op.Access are inverse for addresses up to
// 1<<63-1 and both kinds, and an Op is one word.
func TestOpRoundTrip(t *testing.T) {
	if n := unsafe.Sizeof(Op(0)); n != 8 {
		t.Fatalf("Op is %d bytes, want 8", n)
	}
	for _, addr := range []VirtAddr{0, 1, 0x1000, 1<<VABits - 1, 1 << VABits, 1<<62 + 5, 1<<63 - 1} {
		for _, kind := range []AccessKind{Read, Write} {
			a := Access{Addr: addr, Kind: kind}
			op := PackAccess(a)
			if got := op.Access(); got != a {
				t.Errorf("PackAccess(%v %v).Access() = %v %v", a.Kind, a.Addr, got.Kind, got.Addr)
			}
			if w := op&opWrite != 0; w != (kind == Write) {
				t.Errorf("PackAccess(%v %v) write flag %v", a.Kind, a.Addr, w)
			}
		}
	}
}
