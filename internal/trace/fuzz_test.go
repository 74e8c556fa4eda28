package trace

import (
	"bytes"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// FuzzRead is a native fuzz target for the trace decoder: any byte input must
// produce a clean error or a structurally valid trace, never a panic or an
// unbounded allocation. Run with `go test -fuzz FuzzRead ./internal/trace`.
func FuzzRead(f *testing.F) {
	f.Add([]byte(magic))
	f.Add([]byte("garbage"))
	var seed bytes.Buffer
	_ = Write(&seed, &Trace{
		FootprintPages: 64,
		Warps: pack([][]memdef.Access{
			{{Addr: 0x1000}, {Addr: 0x2000, Kind: memdef.Write}},
		}),
	})
	f.Add(seed.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// A successfully decoded trace must re-encode and re-decode to the
		// same structure.
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back.Warps) != len(tr.Warps) || back.FootprintPages != tr.FootprintPages {
			t.Fatal("re-decode changed structure")
		}
	})
}
