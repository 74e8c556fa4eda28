package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/reproductions/cppe/internal/memdef"
)

func checkpointTestConfig() Config {
	return Config{Scale: 0.05, Parallelism: 2}
}

func ckptKey() Key { return Key{Bench: "SRD", Setup: "cppe", OversubPct: 50} }

// TestResumeEquivalenceGoldenConfigs pins pause-and-continue equivalence
// across the golden setup families: for each configuration, a machine paused
// at three distinct mid-run cycles and then driven to the end must finish
// with a Result bit-for-bit identical to the uninterrupted run. The pause
// cycle is controlled exactly by RunUntil on the built machine.
func TestResumeEquivalenceGoldenConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	keys := []Key{
		{Bench: "SRD", Setup: "baseline", OversubPct: 50},
		{Bench: "HSD", Setup: "random", OversubPct: 50},
		{Bench: "NW", Setup: "lru-20%", OversubPct: 50},
		{Bench: "B+T", Setup: "cppe", OversubPct: 50},
		{Bench: "2DC", Setup: "cppe", OversubPct: 75},
		{Bench: "KMN", Setup: "hpe", OversubPct: 50},
		{Bench: "HIS", Setup: "tree", OversubPct: 50},
	}
	for _, k := range keys {
		k := k
		t.Run(fmt.Sprintf("%s_%s_%d", k.Bench, k.Setup, k.OversubPct), func(t *testing.T) {
			want := NewSession(checkpointTestConfig()).Run(k)
			if want.Err != nil || want.Cycles == 0 {
				t.Fatalf("degenerate reference run: %+v", want)
			}
			for _, c := range []memdef.Cycle{want.Cycles / 5, want.Cycles / 2, want.Cycles * 4 / 5} {
				c := c
				t.Run(fmt.Sprintf("cycle_%d", c), func(t *testing.T) {
					s := NewSession(checkpointTestConfig())
					b, err := s.build(k)
					if err != nil {
						t.Fatalf("build: %v", err)
					}
					if _, paused := b.machine.RunUntil(s.cfg.MaxEvents, c); !paused {
						t.Fatalf("run finished before pause cycle %d", c)
					}
					if got, _ := s.drive(k, b, runOpts{}); !reflect.DeepEqual(got, want) {
						t.Errorf("continued result differs at cycle %d:\n got %+v\nwant %+v", c, got, want)
					}
				})
			}
		})
	}
}

// TestChaosRunCheckpointsAndResumes runs fault injection (ChaosSeed 11)
// through RunResumable with a run record path, parks it at a mid-run
// boundary, and calls it again: the second call reruns from cycle 0 and must
// render the plain run's Result JSON, because the injected schedule is a
// function of the seed alone.
func TestChaosRunCheckpointsAndResumes(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.Base = memdef.DefaultConfig()
	cfg.Base.ChaosSeed = 11
	k := ckptKey()
	want := NewSession(cfg).Run(k)
	if want.Err != nil || want.Cycles == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}

	path := filepath.Join(t.TempDir(), "chaos.ckpt")
	every := want.Cycles / 4
	parks := 0
	_, err := NewSession(cfg).RunResumable(k, path, every, func() bool {
		parks++
		return parks >= 2
	}, nil)
	if !errors.Is(err, ErrParked) {
		t.Fatalf("first call: err = %v, want ErrParked", err)
	}
	got, err := NewSession(cfg).RunResumable(k, path, every, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := resultJSON(t, []Result{got}), resultJSON(t, []Result{want}); string(g) != string(w) {
		t.Errorf("parked and continued run differs:\n got %s\nwant %s", g, w)
	}
}

// TestSmokeCheckpointBytesPinned pins the run record end to end: the last
// record a run of SRD/cppe@50 at scale 0.05 writes with a 500,000-cycle epoch
// must keep exactly this length and SHA-256. The progress hook reads the
// record at each boundary, since the run removes it on return. A change to
// the envelope or to the framing shows up here; an intended format change
// bumps recordVersion and these values together.
func TestSmokeCheckpointBytesPinned(t *testing.T) {
	const (
		wantLen    = 1058
		wantSHA256 = "98d0b05a34b567ca26c720b80a107370a8cbecddcb0925df876e37f1c355698d"
	)
	path := filepath.Join(t.TempDir(), "smoke.ckpt")
	var data []byte
	var readErr error
	r, err := NewSession(Config{Scale: 0.05}).RunResumable(ckptKey(), path, 500_000, nil, func(Progress) {
		data, readErr = os.ReadFile(path)
	})
	if err != nil || r.Err != nil || readErr != nil {
		t.Fatalf("recorded run: %v / %v / %v", err, r.Err, readErr)
	}
	sum := sha256.Sum256(data)
	if len(data) != wantLen || hex.EncodeToString(sum[:]) != wantSHA256 {
		t.Errorf("last run record is %d bytes, sha256 %x; want %d bytes, sha256 %s",
			len(data), sum, wantLen, wantSHA256)
	}
}
