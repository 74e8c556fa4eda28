package sm

import (
	"errors"
	"reflect"
	"testing"

	"github.com/reproductions/cppe/internal/engine"
	"github.com/reproductions/cppe/internal/evict"
	"github.com/reproductions/cppe/internal/memdef"
	"github.com/reproductions/cppe/internal/prefetch"
	"github.com/reproductions/cppe/internal/snapshot"
	"github.com/reproductions/cppe/internal/uvm"
)

// snapshotBytes returns the paused machine's framed checkpoint on its own.
func snapshotBytes(m *Machine) ([]byte, error) {
	w := snapshot.NewWriter(1 << 16)
	m.SnapshotTo(w)
	return w.Bytes()
}

// oversubTraces builds a multi-warp strided workload whose footprint exceeds
// the configured capacity, so checkpoints land while faults, migrations, and
// evictions are in flight.
func oversubTraces(warps, pagesPerWarp int) [][]memdef.Access {
	traces := make([][]memdef.Access, warps)
	for w := range traces {
		tr := make([]memdef.Access, 0, 2*pagesPerWarp)
		base := w * pagesPerWarp
		for i := 0; i < pagesPerWarp; i++ {
			tr = append(tr, memdef.Access{Addr: memdef.PageNum(base + i).Addr()})
			if i%3 == 0 {
				tr = append(tr, memdef.Access{Addr: memdef.PageNum(base + i).Addr(), Kind: memdef.Write})
			}
		}
		traces[w] = tr
	}
	return traces
}

type machineSetup struct {
	name  string
	build func() *Machine
}

func snapshotSetups() []machineSetup {
	cfg := smallConfig()
	cfg.MemoryPages = 8 * memdef.ChunkPages
	traces := oversubTraces(6, 96)
	return []machineSetup{
		{"lru-locality", func() *Machine {
			return NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), traces)
		}},
		{"mhpe-pattern", func() *Machine {
			return NewMachine(cfg, evict.NewMHPE(evict.MHPEOptions{}), prefetch.MustPattern(prefetch.Scheme2, 0), traces)
		}},
		{"random-tree", func() *Machine {
			return NewMachine(cfg, evict.NewRandom(42), prefetch.NewTree(), traces)
		}},
	}
}

// finalState captures everything a resumed run must reproduce bit for bit.
type finalState struct {
	Res     Result
	UVM     uvm.Stats
	SMStats []SMStats
}

func captureFinal(m *Machine, res Result) finalState {
	return finalState{Res: res, UVM: m.MMU.Stats(), SMStats: m.SMStats()}
}

func TestSnapshotResumeEquivalence(t *testing.T) {
	for _, su := range snapshotSetups() {
		su := su
		t.Run(su.name, func(t *testing.T) {
			ref := su.build()
			refRes := ref.Run(0)
			if refRes.Err != nil {
				t.Fatalf("reference run failed: %v", refRes.Err)
			}
			want := captureFinal(ref, refRes)
			if refRes.Cycles < 4 {
				t.Fatalf("reference too short to checkpoint: %d cycles", refRes.Cycles)
			}
			for _, c := range []memdef.Cycle{refRes.Cycles / 4, refRes.Cycles / 2, refRes.Cycles * 3 / 4} {
				m1 := su.build()
				_, paused := m1.RunUntil(0, c)
				if !paused {
					t.Fatalf("cycle %d: machine finished before pause", c)
				}
				blob, err := snapshotBytes(m1)
				if err != nil {
					t.Fatalf("cycle %d: snapshot: %v", c, err)
				}
				m2 := su.build()
				if err := m2.Restore(blob); err != nil {
					t.Fatalf("cycle %d: restore: %v", c, err)
				}
				res2 := m2.Run(0)
				got := captureFinal(m2, res2)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("cycle %d: resumed result differs:\n got %+v\nwant %+v", c, got, want)
				}
			}
		})
	}
}

// TestSnapshotResumeTwice checkpoints a run, restores it, checkpoints the
// restored machine again, and restores that: chained checkpoints must still
// land on the reference result.
func TestSnapshotResumeTwice(t *testing.T) {
	su := snapshotSetups()[0]
	ref := su.build()
	refRes := ref.Run(0)
	if refRes.Err != nil {
		t.Fatalf("reference run failed: %v", refRes.Err)
	}
	want := captureFinal(ref, refRes)

	m1 := su.build()
	if _, paused := m1.RunUntil(0, refRes.Cycles/4); !paused {
		t.Fatal("finished before first pause")
	}
	blob1, err := snapshotBytes(m1)
	if err != nil {
		t.Fatalf("first snapshot: %v", err)
	}
	m2 := su.build()
	if err := m2.Restore(blob1); err != nil {
		t.Fatalf("first restore: %v", err)
	}
	if _, paused := m2.RunUntil(0, refRes.Cycles/2); !paused {
		t.Fatal("finished before second pause")
	}
	blob2, err := snapshotBytes(m2)
	if err != nil {
		t.Fatalf("second snapshot: %v", err)
	}
	m3 := su.build()
	if err := m3.Restore(blob2); err != nil {
		t.Fatalf("second restore: %v", err)
	}
	res3 := m3.Run(0)
	if got := captureFinal(m3, res3); !reflect.DeepEqual(got, want) {
		t.Errorf("chained resume differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	su := snapshotSetups()[0]
	m := su.build()
	if _, paused := m.RunUntil(0, 500); !paused {
		t.Fatal("finished before pause")
	}
	blob, err := snapshotBytes(m)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	t.Run("bitflips", func(t *testing.T) {
		for off := 0; off < len(blob); off += 1 + len(blob)/97 {
			mut := append([]byte(nil), blob...)
			mut[off] ^= 0x40
			m2 := su.build()
			if err := m2.Restore(mut); err == nil {
				t.Errorf("bit flip at offset %d accepted", off)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for _, n := range []int{0, 3, 4, 12, len(blob) / 2, len(blob) - 1} {
			m2 := su.build()
			if err := m2.Restore(blob[:n]); err == nil {
				t.Errorf("truncation to %d bytes accepted", n)
			}
		}
	})
	t.Run("trailing-garbage", func(t *testing.T) {
		m2 := su.build()
		if err := m2.Restore(append(append([]byte(nil), blob...), 0xEE)); err == nil {
			t.Error("trailing garbage accepted")
		}
	})
	t.Run("valid-still-restores", func(t *testing.T) {
		m2 := su.build()
		if err := m2.Restore(blob); err != nil {
			t.Fatalf("pristine blob rejected: %v", err)
		}
	})
}

func TestSnapshotRefusedUnderChaos(t *testing.T) {
	cfg := smallConfig()
	cfg.MemoryPages = 8 * memdef.ChunkPages
	cfg.ChaosSeed = 7
	m := NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), oversubTraces(4, 64))
	if _, paused := m.RunUntil(0, 500); !paused {
		t.Fatal("finished before pause")
	}
	_, err := snapshotBytes(m)
	if !errors.Is(err, uvm.ErrNotCheckpointable) {
		t.Fatalf("snapshot under chaos: err = %v, want ErrNotCheckpointable", err)
	}
}

// TestSnapshotRejectsConfigMismatch restores into machines built with a
// different shape and expects structured errors, not panics.
func TestSnapshotRejectsConfigMismatch(t *testing.T) {
	su := snapshotSetups()[0]
	m := su.build()
	if _, paused := m.RunUntil(0, 500); !paused {
		t.Fatal("finished before pause")
	}
	blob, err := snapshotBytes(m)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	cfg := smallConfig()
	cfg.MemoryPages = 8 * memdef.ChunkPages
	tests := []struct {
		name  string
		build func() *Machine
	}{
		{"different-policy", func() *Machine {
			return NewMachine(cfg, evict.NewMHPE(evict.MHPEOptions{}), prefetch.NewLocality(), oversubTraces(6, 96))
		}},
		{"different-prefetcher", func() *Machine {
			return NewMachine(cfg, evict.NewLRU(), prefetch.NewTree(), oversubTraces(6, 96))
		}},
		{"fewer-warps", func() *Machine {
			return NewMachine(cfg, evict.NewLRU(), prefetch.NewLocality(), oversubTraces(4, 96))
		}},
		{"different-capacity", func() *Machine {
			c2 := cfg
			c2.MemoryPages = 16 * memdef.ChunkPages
			return NewMachine(c2, evict.NewLRU(), prefetch.NewLocality(), oversubTraces(6, 96))
		}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m2 := tc.build()
			if err := m2.Restore(blob); err == nil {
				t.Error("mismatched machine accepted the checkpoint")
			}
		})
	}
}

// TestSnapshotRequiresPause documents that encoding is only defined at an
// event boundary; a machine that already ran to completion encodes (it is
// trivially quiescent) but one that never ran snapshots its initial state.
func TestSnapshotInitialState(t *testing.T) {
	su := snapshotSetups()[0]
	ref := su.build()
	want := captureFinal(ref, ref.Run(0))

	m1 := su.build()
	blob, err := snapshotBytes(m1)
	if err != nil {
		t.Fatalf("initial snapshot: %v", err)
	}
	m2 := su.build()
	if err := m2.Restore(blob); err != nil {
		t.Fatalf("restore: %v", err)
	}
	res := m2.Run(0)
	if got := captureFinal(m2, res); !reflect.DeepEqual(got, want) {
		t.Errorf("run-from-initial-snapshot differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestEncodeRefusesUntaggedEvent guards the completeness invariant: an
// untagged event anywhere in the queue fails the checkpoint with
// engine.ErrUntagged instead of writing an unreconstructable snapshot.
func TestEncodeRefusesUntaggedEvent(t *testing.T) {
	su := snapshotSetups()[0]
	m := su.build()
	if _, paused := m.RunUntil(0, 500); !paused {
		t.Fatal("finished before pause")
	}
	m.Eng.Schedule(3, func() {}) // legacy untagged API
	_, err := snapshotBytes(m)
	if !errors.Is(err, engine.ErrUntagged) {
		t.Fatalf("snapshot with untagged event: err = %v, want ErrUntagged", err)
	}
}
