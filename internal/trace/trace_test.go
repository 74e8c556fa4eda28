package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/workload"
)

// pack converts per-warp access literals to the packed form traces store.
func pack(warps [][]memdef.Access) [][]memdef.Op {
	out := make([][]memdef.Op, len(warps))
	for w, accs := range warps {
		for _, a := range accs {
			out[w] = append(out[w], memdef.PackAccess(a))
		}
	}
	return out
}

func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func tracesEqual(a, b *Trace) bool {
	if a.FootprintPages != b.FootprintPages || len(a.Warps) != len(b.Warps) {
		return false
	}
	for w := range a.Warps {
		if len(a.Warps[w]) != len(b.Warps[w]) {
			return false
		}
		for i := range a.Warps[w] {
			if a.Warps[w][i] != b.Warps[w][i] {
				return false
			}
		}
	}
	return true
}

func TestRoundTripEmpty(t *testing.T) {
	tr := &Trace{FootprintPages: 128, Warps: [][]memdef.Op{}}
	if !tracesEqual(tr, roundTrip(t, tr)) {
		t.Fatal("empty trace mismatch")
	}
}

func TestRoundTripSimple(t *testing.T) {
	tr := &Trace{
		FootprintPages: 64,
		Warps: pack([][]memdef.Access{
			{
				{Addr: 0x1000, Kind: memdef.Read},
				{Addr: 0x2000, Kind: memdef.Write},
				{Addr: 0x1800, Kind: memdef.Read}, // backward delta
			},
			nil, // empty warp
			{
				{Addr: 0, Kind: memdef.Write},
			},
		}),
	}
	if !tracesEqual(tr, roundTrip(t, tr)) {
		t.Fatal("trace mismatch after round trip")
	}
}

func TestRoundTripRandomProperty(t *testing.T) {
	f := func(seed int64, warps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nw := int(warps%8) + 1
		tr := &Trace{FootprintPages: rng.Intn(10000)}
		for w := 0; w < nw; w++ {
			n := rng.Intn(200)
			warp := make([]memdef.Op, n)
			for i := range warp {
				kind := memdef.Read
				if rng.Intn(2) == 0 {
					kind = memdef.Write
				}
				warp[i] = memdef.PackAccess(memdef.Access{
					Addr: memdef.VirtAddr(rng.Uint64() & (1<<47 - 1)),
					Kind: kind,
				})
			}
			tr.Warps = append(tr.Warps, warp)
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return tracesEqual(tr, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripRealWorkload(t *testing.T) {
	b, _ := workload.ByAbbr("NW")
	wtr := b.Generate(workload.Options{Scale: 0.05, Warps: 16})
	tr := &Trace{FootprintPages: wtr.FootprintPages, Warps: wtr.Warps}
	got := roundTrip(t, tr)
	if !tracesEqual(tr, got) {
		t.Fatal("workload trace mismatch")
	}
}

func TestCompressionRatio(t *testing.T) {
	// Sequential traces must encode far below the 9-byte/access raw cost.
	b, _ := workload.ByAbbr("HOT")
	wtr := b.Generate(workload.Options{Scale: 0.05, Warps: 16})
	tr := &Trace{FootprintPages: wtr.FootprintPages, Warps: wtr.Warps}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	perAccess := float64(buf.Len()) / float64(wtr.Accesses)
	if perAccess > 4 {
		t.Fatalf("encoding %.1f bytes/access, want < 4", perAccess)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOTATRACE-------")); err != ErrBadFormat {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestTruncatedInput(t *testing.T) {
	tr := &Trace{
		FootprintPages: 64,
		Warps:          pack([][]memdef.Access{{{Addr: 0x1000}, {Addr: 0x2000}}}),
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(full))
		}
	}
}

func TestImplausibleCountsRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	// footprint = 1, warpCount = 2^40 (implausible).
	buf.Write([]byte{0x01})
	buf.Write([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01})
	if _, err := Read(&buf); err == nil {
		t.Fatal("implausible warp count accepted")
	}
}

func TestZigZag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag(%d) round trip = %d", v, got)
		}
	}
}

func TestSummarize(t *testing.T) {
	tr := &Trace{
		FootprintPages: 64,
		Warps: pack([][]memdef.Access{
			{
				{Addr: memdef.PageNum(0).Addr(), Kind: memdef.Read},
				{Addr: memdef.PageNum(0).Addr() + 128, Kind: memdef.Write},
				{Addr: memdef.PageNum(17).Addr(), Kind: memdef.Read},
			},
		}),
	}
	s := Summarize(tr)
	if s.Accesses != 3 || s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TouchedPages != 2 || s.TouchedChunks != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReadNeverPanicsOnArbitraryInput(t *testing.T) {
	// Robustness: Read must return errors, never panic, on malformed input.
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Read panicked")
			}
		}()
		_, _ = Read(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	// Also with a valid magic prefix followed by garbage.
	g := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Read panicked with valid magic")
			}
		}()
		_, _ = Read(bytes.NewReader(append([]byte(magic), data...)))
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
