package harness

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

// resumableTestConfig is the session of the run record tests.
func resumableTestConfig() Config {
	return Config{Scale: 0.05, Parallelism: 2}
}

// srdKey is the run record tests' simulation: SRD under CPPE at 50%.
func srdKey() Key { return Key{Bench: "SRD", Setup: "cppe", OversubPct: 50} }

// TestRunResumableRemovesStaleRecord asserts the cleanup contract: what a
// previous life left at the run record path — another simulation's record
// and a torn temporary — is gone when the run returns, even when the run
// completes without ever writing a record of its own. Nothing reads the
// leftover; the run starts at cycle 0 regardless.
func TestRunResumableRemovesStaleRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "job.rec")
	other := Key{Bench: "HSD", Setup: "cppe", OversubPct: 50}
	s := NewSession(resumableTestConfig())
	b, err := s.build(other)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, 150_000); !paused {
		t.Fatal("planted run finished before its record cycle")
	}
	if err := s.writeRecord(path, other, b); err != nil {
		t.Fatalf("planting run record: %v", err)
	}
	if err := os.WriteFile(path+".tmp", []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A huge epoch means the run never writes a record, so only the cleanup
	// on return can remove the leftovers.
	r, err := NewSession(resumableTestConfig()).RunResumable(srdKey(), path, 1<<40, nil, nil)
	if err != nil || r.Err != nil {
		t.Fatalf("run over leftovers failed: %v / %v", err, r.Err)
	}
	goneAfter(t, "run over leftovers", path)
}

// TestEnvelopeIDStability pins the content-address semantics: equal sessions
// agree on the ID, every identity-bearing knob changes it, and unknown keys
// are structured errors.
func TestEnvelopeIDStability(t *testing.T) {
	k := srdKey()
	a, err := NewSession(resumableTestConfig()).EnvelopeID(k)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSession(resumableTestConfig()).EnvelopeID(k)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equal sessions disagree: %#x vs %#x", a, b)
	}

	distinct := map[uint64]string{a: "base"}
	add := func(name string, id uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if prev, dup := distinct[id]; dup {
			t.Errorf("%s collides with %s: %#x", name, prev, id)
		}
		distinct[id] = name
	}

	id, err := NewSession(resumableTestConfig()).EnvelopeID(Key{Bench: "HSD", Setup: "cppe", OversubPct: 50})
	add("bench", id, err)
	id, err = NewSession(resumableTestConfig()).EnvelopeID(Key{Bench: "SRD", Setup: "baseline", OversubPct: 50})
	add("setup", id, err)
	id, err = NewSession(resumableTestConfig()).EnvelopeID(Key{Bench: "SRD", Setup: "cppe", OversubPct: 75})
	add("rate", id, err)
	seeded := resumableTestConfig()
	seeded.Seed = 7
	id, err = NewSession(seeded).EnvelopeID(k)
	add("seed", id, err)
	scaled := resumableTestConfig()
	scaled.Scale = 0.1
	id, err = NewSession(scaled).EnvelopeID(k)
	add("scale", id, err)
	sys := resumableTestConfig()
	sys.Base = memdef.DefaultConfig()
	sys.Base.PCIeGBs = 32
	id, err = NewSession(sys).EnvelopeID(k)
	add("system", id, err)

	if _, err := NewSession(resumableTestConfig()).EnvelopeID(Key{Bench: "nope", Setup: "cppe"}); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown bench: err = %v, want ErrUnknownKey", err)
	}
	if _, err := NewSession(resumableTestConfig()).EnvelopeID(Key{Bench: "SRD", Setup: "nope"}); !errors.Is(err, ErrUnknownKey) {
		t.Errorf("unknown setup: err = %v, want ErrUnknownKey", err)
	}
}
