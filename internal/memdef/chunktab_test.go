package memdef

import (
	"math/rand"
	"slices"
	"testing"
)

// TestChunkTableMatchesMap drives a table with a small dense part through
// random sets and clears of chunks below, around and far past its limit,
// and requires Get, Each and End to agree with a map after every step.
func TestChunkTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab ChunkTable[int32]
	tab.Reset(0, 300)
	want := map[ChunkID]int32{}
	pick := func() ChunkID {
		switch rng.Intn(3) {
		case 0:
			return ChunkID(rng.Intn(400)) // dense and the block straddling the limit
		case 1:
			return 1<<30 + ChunkID(rng.Intn(500))
		}
		return ChunkID(rng.Int63n(1 << 36))
	}
	var held []ChunkID
	for step := 0; step < 20000; step++ {
		var c ChunkID
		if len(held) > 0 && rng.Intn(2) == 0 {
			c = held[rng.Intn(len(held))]
		} else {
			c = pick()
		}
		v := int32(rng.Intn(3)) // 0 clears
		tab.Set(c, v)
		if v == 0 {
			delete(want, c)
		} else {
			if _, ok := want[c]; !ok {
				held = append(held, c)
			}
			want[c] = v
		}
		if got := tab.Get(c); got != v {
			t.Fatalf("step %d: Get(%d) = %d after Set %d", step, c, got, v)
		}
	}
	var keys []ChunkID
	for c := range want {
		keys = append(keys, c)
	}
	slices.Sort(keys)
	var got []ChunkID
	tab.Each(func(c ChunkID, v int32) bool {
		if want[c] != v {
			t.Errorf("Each gave %d for chunk %d, want %d", v, c, want[c])
		}
		got = append(got, c)
		return true
	})
	if !slices.Equal(got, keys) {
		t.Fatalf("Each visited %d chunks, want %d in ascending order", len(got), len(keys))
	}
	for _, c := range held {
		if tab.Get(c) != want[c] {
			t.Fatalf("Get(%d) = %d, want %d", c, tab.Get(c), want[c])
		}
	}
	if n := len(keys); n > 0 && tab.End() <= keys[n-1] {
		t.Fatalf("End %d is not above the highest chunk %d", tab.End(), keys[n-1])
	}
	if len(tab.Dense()) > 300 {
		t.Fatalf("dense part grew to %d chunks past its limit 300", len(tab.Dense()))
	}
}

// TestChunkTableFarBlocks: far chunks share a block per FarChunks-aligned
// run, a block goes when its last chunk is cleared, and Reset empties the
// table while keeping its storage.
func TestChunkTableFarBlocks(t *testing.T) {
	var tab ChunkTable[bool]
	tab.Reset(8, 8)
	base := ChunkID(5 * FarChunks)
	tab.Set(base+1, true)
	tab.Set(base+2, true)
	tab.Set(1<<40, true)
	tab.Set(3, true)
	if tab.Blocks() != 2 || len(tab.Dense()) != 8 {
		t.Fatalf("%d far blocks and %d dense chunks, want 2 and 8", tab.Blocks(), len(tab.Dense()))
	}
	tab.Set(base+1, false)
	if tab.Blocks() != 2 || !tab.Get(base+2) {
		t.Fatal("clearing one of two chunks dropped their block")
	}
	tab.Set(base+2, false)
	tab.Set(base+3, false) // clearing a chunk that holds nothing
	if tab.Blocks() != 1 || tab.Get(base+2) || !tab.Get(1<<40) {
		t.Fatalf("clearing a block's last chunk left %d blocks, want 1", tab.Blocks())
	}
	dense := &tab.Dense()[0]
	tab.Reset(8, 8)
	if tab.Blocks() != 0 || tab.Get(3) || tab.Get(1<<40) || tab.End() != 8 {
		t.Fatal("Reset left a value behind")
	}
	if &tab.Dense()[0] != dense {
		t.Fatal("Reset did not keep the dense storage")
	}
	if a := testing.AllocsPerRun(10, func() {
		tab.Set(1<<40, true)
		tab.Set(1<<41, true)
		tab.Set(1<<40, false)
		tab.Set(1<<41, false)
	}); a != 0 {
		t.Errorf("re-adding dropped blocks made %v allocs, want 0", a)
	}
}

// TestChunkTableGrowth: the dense part doubles toward its limit, so n
// ascending chunks allocate O(log n) times, and chunks at the limit go to a
// far block.
func TestChunkTableGrowth(t *testing.T) {
	const limit = 1 << 16
	var tab ChunkTable[int32]
	a := testing.AllocsPerRun(1, func() {
		tab = ChunkTable[int32]{}
		tab.Reset(0, limit)
		for c := ChunkID(0); c < limit; c++ {
			tab.Set(c, 1)
		}
	})
	if a > 17 {
		t.Errorf("%d ascending chunks made %v allocs, want O(log n)", limit, a)
	}
	if len(tab.Dense()) != limit || tab.Blocks() != 0 {
		t.Fatalf("dense part %d chunks with %d far blocks, want %d and 0", len(tab.Dense()), tab.Blocks(), limit)
	}
	tab.Set(limit, 1)
	if len(tab.Dense()) != limit || tab.Blocks() != 1 {
		t.Fatal("a chunk at the limit grew the dense part")
	}
}
