package memdef

// SMID identifies a streaming multiprocessor.
type SMID int

// WarpID identifies a warp globally (across all SMs).
type WarpID int

// AccessKind distinguishes reads from writes. The simulator's paging policies
// do not depend on it beyond dirty-page write-back accounting, but the data
// caches and the statistics do.
type AccessKind uint8

const (
	// Read is a global-memory load.
	Read AccessKind = iota
	// Write is a global-memory store.
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "W"
	}
	return "R"
}

// Access is one post-coalesced global-memory access issued by a warp.
type Access struct {
	Addr VirtAddr
	Kind AccessKind
}

// Op is an Access packed into one word, the form traces store: the address
// in bits 0-62 and the write flag in bit 63. A padded Access is 16 bytes; an
// Op is 8.
type Op uint64

// opWrite is Op's write flag.
const opWrite Op = 1 << 63

// PackAccess packs a into an Op. The address must stay below 1<<63, which
// every trace producer guarantees: the generator emits 48-bit (VABits)
// addresses and trace.Read rejects negative int64 addresses.
func PackAccess(a Access) Op {
	op := Op(a.Addr)
	if a.Kind == Write {
		op |= opWrite
	}
	return op
}

// Access unpacks op. The write flag is the kind itself: Read is 0, Write 1.
func (op Op) Access() Access {
	return Access{Addr: VirtAddr(op &^ opWrite), Kind: AccessKind(op >> 63)}
}

// Request is an in-flight memory access being serviced by the translation and
// data hierarchy on behalf of a warp.
type Request struct {
	SM     SMID
	Warp   WarpID
	Access Access
	// Issue is the cycle at which the warp issued the request.
	Issue Cycle
	// Done is invoked exactly once, when both the translation and the data
	// access have completed.
	Done func()
}

// Page returns the virtual page accessed by the request.
func (r *Request) Page() PageNum { return r.Access.Addr.Page() }
