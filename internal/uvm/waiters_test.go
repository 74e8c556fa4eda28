package uvm

import (
	"slices"
	"testing"
	"unsafe"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/xbus"
)

// TestChunkStateSize pins the per-chunk bookkeeping at 48 bytes or less: a
// Table-I run touches hundreds of chunks, and the waiter FIFO is one list
// per chunk, not a pair of heads per page.
func TestChunkStateSize(t *testing.T) {
	if n := unsafe.Sizeof(chunkState{}); n > 48 {
		t.Fatalf("chunkState is %d bytes, want <= 48", n)
	}
}

// TestChunkTabSizedOnce: with the footprint known, the first touch sizes the
// chunk table over the whole footprint, so touches below and above it inside
// the footprint keep the same storage, and states stay where lookupChunk
// finds them. A touch past the footprint lands in a far block and leaves the
// table where it is.
func TestChunkTabSizedOnce(t *testing.T) {
	eng := engine.New()
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 1
	m := New(eng, cfg, xbus.New(eng, cfg), evict.NewLRU(), prefetch.NewLocality(), &flatMem{eng: eng})
	const chunks = 300
	m.SetFootprint(chunks*memdef.ChunkPages - 3) // a partial last chunk counts
	first := m.chunkState(7)
	tab := unsafe.SliceData(m.chunks.Dense())
	if n := cap(m.chunks.Dense()); n != chunks {
		t.Fatalf("first touch sized the table to %d chunks, want %d", n, chunks)
	}
	for _, c := range []memdef.ChunkID{0, chunks - 1, 150} {
		m.chunkState(c)
	}
	if unsafe.SliceData(m.chunks.Dense()) != tab || m.lookupChunk(7) != first {
		t.Fatal("touches inside the footprint moved the chunk table")
	}
	m.chunkState(chunks)
	if m.lookupChunk(chunks) == nil || m.lookupChunk(7) != first || unsafe.SliceData(m.chunks.Dense()) != tab {
		t.Fatal("a touch past the footprint lost a chunk state or moved the table")
	}
	if n := m.chunks.Blocks(); n != 1 {
		t.Fatalf("a touch past the footprint made %d far blocks, want 1", n)
	}
}

// TestFarChunksInOrder: without a footprint, chunks scattered over the whole
// VA space cost one block each, lookupChunk finds every one of them and
// nothing else, and eachChunk visits them in ascending chunk order, which
// the audit's first-violation reports and the state dump depend on.
func TestFarChunksInOrder(t *testing.T) {
	eng := engine.New()
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 1
	m := New(eng, cfg, xbus.New(eng, cfg), evict.NewLRU(), prefetch.NewLocality(), &flatMem{eng: eng})
	var want []memdef.ChunkID
	for i := uint64(0); i < 50; i++ {
		c := memdef.ChunkID(i * 0x3f_0000_1000 % (1 << 47) >> memdef.PageShift / memdef.ChunkPages)
		want = append(want, c)
		m.chunkState(c).touched = 1
	}
	m.chunkState(want[3] + 1) // a neighbour shares its block
	want = append(want, want[3]+1)
	slices.Sort(want)
	want = slices.Compact(want)
	var got []memdef.ChunkID
	m.eachChunk(func(c memdef.ChunkID, st *chunkState) bool {
		if m.lookupChunk(c) != st {
			t.Errorf("lookupChunk(%d) does not find the state eachChunk visits", c)
		}
		got = append(got, c)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("eachChunk visited %v, want %v", got, want)
	}
	if d, b := len(m.chunks.Dense()), m.chunks.Blocks(); d != 0 || b > len(want) {
		t.Fatalf("%d dense entries and %d far blocks for %d scattered chunks", d, b, len(want))
	}
	if m.lookupChunk(want[len(want)-1]+1) != nil || m.lookupChunk(m.chunkLimit()) != nil {
		t.Fatal("lookupChunk found an untouched chunk")
	}
}

// TestWakeKeepsPerPageFIFO: translations waiting on different pages of one
// chunk share its FIFO; waking a page resumes exactly that page's waiters,
// in the order they arrived, and leaves the others queued in theirs.
func TestWakeKeepsPerPageFIFO(t *testing.T) {
	eng := engine.New()
	cfg := memdef.DefaultConfig()
	cfg.NumSMs = 1
	m := New(eng, cfg, xbus.New(eng, cfg), evict.NewLRU(), prefetch.NewLocality(), &flatMem{eng: eng})
	var woke []uint64
	m.xlatFaultFn = func(id uint64) { woke = append(woke, id) }

	c := memdef.ChunkID(5)
	a, b, other := c.Page(2), c.Page(9), c.Page(4)
	st := m.chunkState(c)
	pages := []memdef.PageNum{a, b, a, b, a}
	for i, p := range pages {
		st.addWaiter(p.Index(), &xlat{id: uint64(i), page: p})
	}

	m.wake(other) // no waiters: nothing happens
	m.wake(a)
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{0, 2, 4}; !slices.Equal(woke, want) {
		t.Fatalf("wake(a) resumed %v, want %v", woke, want)
	}
	if st.waiting.Has(a.Index()) || !st.waiting.Has(b.Index()) {
		t.Fatalf("waiting bitmap %016b after wake(a)", st.waiting)
	}
	if st.waitHead.id != 1 || st.waitTail.id != 3 || st.waitHead.waitNext != st.waitTail || st.waitTail.waitNext != nil {
		t.Fatal("page b's waiters are not left as the FIFO 1, 3")
	}

	woke = woke[:0]
	st.addWaiter(b.Index(), &xlat{id: 7, page: b})
	m.wake(b)
	if _, err := eng.Run(nil); err != nil {
		t.Fatal(err)
	}
	if want := []uint64{1, 3, 7}; !slices.Equal(woke, want) {
		t.Fatalf("wake(b) resumed %v, want %v", woke, want)
	}
	if st.waitHead != nil || st.waitTail != nil || st.waiting != 0 {
		t.Fatal("chunk FIFO not empty after waking every page")
	}
}
