package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"github.com/reproductions/cppe/internal/workload"
)

// generatedPins are, for every Table-II benchmark generated at scale 0.05
// with 32 warps, the length and SHA-256 of its encoded trace and its
// workload fingerprint. They were recorded when traces stored a 16-byte
// memdef.Access per record, so they pin that the one-word memdef.Op form
// changed neither the file format nor the identity job IDs hash.
var generatedPins = []struct {
	abbr        string
	size        int
	sha256      string
	fingerprint uint64
}{
	{"HOT", 28905, "a67cc033dc0e91f790656b244182ece155d40263c5b11ced41eaece0278ebaea", 0x171a755412a6e90},
	{"LEU", 23813, "e4344d21600f15449ff1745bd0337606fc7c2041d6ec6bfd4071a2dae31b805a", 0x9d04f88f55a24e88},
	{"2DC", 14473, "c2c9a98e4c631d1d8527336fbe115473825e86c9334ca203bcfc85e74d94478c", 0x6b80d968d9fd0114},
	{"3DC", 14473, "c2c9a98e4c631d1d8527336fbe115473825e86c9334ca203bcfc85e74d94478c", 0x6b80d968d9fd0114},
	{"BKP", 21705, "765440c582d0ceba79b978b58bdb897f4bde068d6029d27d353234cbf0c32e3c", 0x6e9f6cef4587230},
	{"PAT", 17442, "b31c8e69840ab5c94d020efb7fede1705b134f1402ada9d56df63a4cd7a7bbf2", 0x847857409e51c131},
	{"DWT", 18369, "44bf8c91a8acb7840c87798cd4c7a9d9cd317fe41b37939dc2a5229453635744", 0x6f903559eaeeb210},
	{"KMN", 15907, "ae4be4d035edb6176eda50047441c04cf43fdfea3f16b0978a99cb7e2615b65a", 0x4a938fb195b7c09},
	{"SAD", 46845, "6b484a24bb55f6af067d55d60422b1fd60f9f1425260aac6adfe86186063b99d", 0x68416ce1b0204cc9},
	{"NW", 41201, "079cc894421a357d52ff3ee980f5766817661f63dfcbde15717a9190863ad8c8", 0x5f5496e65d8c6af4},
	{"BFS", 14574, "f44cedfae559897e6b3a4a33a93cadab8b58b1300d940e2684456ee251ca1f8f", 0x2e81a875db597e9c},
	{"MVT", 14212, "96aa5c651f2b985128c8ec71a1b86590b34f37ad7d203bab6c8c48ee9d6ff674", 0xdf6d9ae9ecbc9198},
	{"BIC", 14212, "96aa5c651f2b985128c8ec71a1b86590b34f37ad7d203bab6c8c48ee9d6ff674", 0xdf6d9ae9ecbc9198},
	{"SRD", 41500, "9253b7b5d88896098597e00b3b14e69fe9095e1a22b9e7d2e453c661bc69bd05", 0xeeb0052cf284466f},
	{"HSD", 52487, "9e0a1f057c36f5448505474826ad16869d97a353defafeeb490e0dceccd1444d", 0x7eec135997e3bac9},
	{"MRQ", 86633, "7d858783ae4d197600b5572a137ad62f8d91745cf85bb7ec8525345d4f05d3b3", 0x2b2ac95e1cedbf04},
	{"STN", 86633, "7d858783ae4d197600b5572a137ad62f8d91745cf85bb7ec8525345d4f05d3b3", 0x2b2ac95e1cedbf04},
	{"HWL", 34110, "82b9f546fb346463cfd18fabf0f216615592d91ec170925de77f1f66dd149e00", 0x55e37b9fdf933da3},
	{"SGM", 60809, "5249e8b11f1851f36ebbea4a4cd3affc4b9c37e92e3dd5f5c6bfb08af705b41a", 0x64dfe19d74517e94},
	{"HIS", 49521, "a40aace2e45424ac62cd48e2f1528488e021f08cb8a61acefb13e7bd962e3401", 0xbc586d3440680348},
	{"SPV", 38584, "3b4d461207f86c95f8dbd4ce4df3d18415d67a3ddb9b10a33642d66071d1247f", 0xb9718e892803758c},
	{"B+T", 53969, "23d979d89443480af349646a4db85c7caf9e3a448403ff88c6237e5d12169f60", 0x722e45438dc64ba0},
	{"HYB", 62750, "a3f266267d3d758ee72d366730b8693de4d23971e79106cc655e46a2eeff38bc", 0x6613abd158119705},
}

// TestWriteGeneratedGolden: every generated benchmark encodes to the pinned
// bytes and hashes to the pinned fingerprint, and decodes back to its warps.
func TestWriteGeneratedGolden(t *testing.T) {
	if len(generatedPins) != len(workload.All()) {
		t.Fatalf("%d pins for %d benchmarks", len(generatedPins), len(workload.All()))
	}
	for _, pin := range generatedPins {
		b, ok := workload.ByAbbr(pin.abbr)
		if !ok {
			t.Fatalf("unknown benchmark %s", pin.abbr)
		}
		g := workload.NewCache().Get(b, workload.Options{Scale: 0.05, Warps: 32})
		tr := &Trace{FootprintPages: g.FootprintPages, Warps: g.Warps}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != pin.size || got != pin.sha256 {
			t.Errorf("%s: encoded %d bytes with SHA-256 %s, pinned %d bytes with %s", pin.abbr, buf.Len(), got, pin.size, pin.sha256)
		}
		if got := g.Fingerprint(); got != pin.fingerprint {
			t.Errorf("%s: fingerprint %#x, pinned %#x", pin.abbr, got, pin.fingerprint)
		}
		if !tracesEqual(tr, roundTrip(t, tr)) {
			t.Errorf("%s: trace changed across a round trip", pin.abbr)
		}
	}
}
