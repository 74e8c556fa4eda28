package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// TestSmokeCheckpointBytesPinned pins the checkpoint format end to end: the
// file the CI checkpoint smoke leaves behind (SRD/cppe@50, scale 0.05, a
// checkpoint every 500,000 cycles — `cppe-sim -bench SRD -setup cppe -rate 50
// -scale 0.05 -checkpoint-every 500000`) must keep exactly this length and
// SHA-256. A change to any encoder, to the envelope, or to the framing shows
// up here; an intended format change bumps snapshot.Version and these values
// together.
func TestSmokeCheckpointBytesPinned(t *testing.T) {
	const (
		wantLen    = 772804
		wantSHA256 = "e489cea9ac776b0fa3df496fdf9c36ffbbe457d49282aa9c942618d0ec99311b"
	)
	path := filepath.Join(t.TempDir(), "smoke.ckpt")
	if r := NewSession(Config{Scale: 0.05}).RunCheckpointed(ckptKey(), path, 500_000); r.Err != nil {
		t.Fatalf("checkpointed run: %v", r.Err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if len(data) != wantLen || hex.EncodeToString(sum[:]) != wantSHA256 {
		t.Errorf("smoke checkpoint is %d bytes, sha256 %x; want %d bytes, sha256 %s",
			len(data), sum, wantLen, wantSHA256)
	}
}

// pausedMachine builds k in a fresh session and runs it to the first event
// boundary past cycle, ready to checkpoint.
func pausedMachine(tb testing.TB, cfg Config, k Key, cycle memdef.Cycle) (*Session, *built) {
	tb.Helper()
	s := NewSession(cfg)
	b, err := s.build(k)
	if err != nil {
		tb.Fatalf("build: %v", err)
	}
	if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, cycle); !paused {
		tb.Fatalf("run finished before cycle %d", cycle)
	}
	return s, b
}

// TestWarmCheckpointAllocations gates the copy-free write path: once one
// checkpoint has warmed the pooled buffer, another checkpoint of the same
// machine allocates only for the file system calls, not for its ~0.8 MB
// payload.
func TestWarmCheckpointAllocations(t *testing.T) {
	const (
		writes  = 5
		ceiling = 64 << 10 // bytes per checkpoint
	)
	k := ckptKey()
	s, b := pausedMachine(t, Config{Scale: 0.25}, k, 400_000)
	path := filepath.Join(t.TempDir(), "warm.ckpt")
	if err := s.writeCheckpoint(path, k, b); err != nil {
		t.Fatalf("warm-up checkpoint: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < writes; i++ {
		if err := s.writeCheckpoint(path, k, b); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / writes; per >= ceiling {
		t.Errorf("warmed checkpoint allocates %d B, ceiling %d B", per, ceiling)
	}
}

// BenchmarkWriteCheckpoint measures one warmed checkpoint of SRD/cppe@50 at
// the default scale: encode, write to a temporary file, rename. B/op shows
// whether the write path still reuses its buffer.
func BenchmarkWriteCheckpoint(b *testing.B) {
	k := ckptKey()
	s, bt := pausedMachine(b, Config{Scale: 0.25}, k, 400_000)
	path := filepath.Join(b.TempDir(), "bench.ckpt")
	if err := s.writeCheckpoint(path, k, bt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.writeCheckpoint(path, k, bt); err != nil {
			b.Fatal(err)
		}
	}
}
