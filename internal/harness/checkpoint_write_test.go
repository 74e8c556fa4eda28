package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/reproductions/cppe/internal/policy"
	"github.com/reproductions/cppe/internal/snapshot"
)

// TestSmokeCheckpointBytesPinned pins the checkpoint format end to end: the
// file the CI checkpoint smoke leaves behind (SRD/cppe@50, scale 0.05, a
// checkpoint every 500,000 cycles — `cppe-sim -bench SRD -setup cppe -rate 50
// -scale 0.05 -checkpoint-every 500000`) must keep exactly this length and
// SHA-256. A change to the envelope or to the framing shows up here; an
// intended format change bumps snapshot.Version and these values together.
func TestSmokeCheckpointBytesPinned(t *testing.T) {
	const (
		wantLen    = 1058
		wantSHA256 = "98d0b05a34b567ca26c720b80a107370a8cbecddcb0925df876e37f1c355698d"
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

// reframe wraps payload in a checkpoint frame with a valid header and CRC, so
// fuzz mutations reach the envelope parser and the replay checks instead of
// stopping at the checksum gate.
func reframe(payload []byte) []byte {
	out := append([]byte("CPPE"), 0, 0)
	binary.LittleEndian.PutUint16(out[4:], snapshot.Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

// typedResumeError reports whether err is one of the structured failures a
// checkpoint file can cause: a damaged or other-version frame, a corrupt
// envelope or replay, an envelope of another session, or one naming an
// unknown benchmark or policy.
func typedResumeError(err error) bool {
	for _, e := range []error{
		snapshot.ErrBadMagic, snapshot.ErrVersion, snapshot.ErrTruncated, snapshot.ErrChecksum,
		snapshot.ErrCorrupt, ErrCheckpointMismatch, ErrUnknownKey, policy.ErrUnknownPolicy,
	} {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// FuzzRestore feeds arbitrary bytes to Session.Resume as a checkpoint file,
// both raw (exercising the frame, version and checksum gates) and re-framed
// under a valid CRC (exercising the envelope parser, its checks against the
// session, and the replay). Resume must finish the run or return a typed
// error; it must never panic.
func FuzzRestore(f *testing.F) {
	cfg := checkpointTestConfig()
	dir := f.TempDir()
	seed := filepath.Join(dir, "seed.ckpt")
	if r := NewSession(cfg).RunCheckpointed(ckptKey(), seed, 150_000); r.Err == nil {
		if data, err := os.ReadFile(seed); err == nil {
			f.Add(data)
			f.Add(data[:len(data)/2])
			// The bare payload, so mutations of a real envelope get
			// re-framed into the validation path.
			f.Add(data[14 : len(data)-4])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("CPPE"))
	f.Add([]byte("CPPE\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	s := NewSession(cfg)
	path := filepath.Join(dir, "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, reframe(data)} {
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Resume(path, 0); err != nil && !typedResumeError(err) {
				t.Fatalf("untyped resume error: %v", err)
			}
		}
	})
}
