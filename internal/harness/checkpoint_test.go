package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

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
	r, err := NewSession(Config{Scale: 0.05}).RunResumable(srdKey(), path, 500_000, nil, func(Progress) {
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
