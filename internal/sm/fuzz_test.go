package sm

import (
	"testing"

	"github.com/reproductions/cppe/internal/snapshot"
)

// reframe wraps arbitrary bytes in a syntactically valid checkpoint frame
// (magic, version, length, correct CRC), so fuzz mutations reach the payload
// decoders instead of dying at the checksum gate.
func reframe(payload []byte) []byte {
	w := snapshot.NewWriter(len(payload) + 18)
	off := w.BeginFrame()
	copy(w.Reserve(len(payload)), payload)
	w.EndFrame(off)
	out, _ := w.Bytes() // a fresh writer cannot fail
	return out
}

// FuzzRestore feeds arbitrary bytes to Machine.Restore, both raw (exercising
// the framing and checksum gates) and re-framed with a valid CRC (exercising
// every per-subsystem decoder's validation). Restore must return a structured
// error or succeed; it must never panic, hang, or over-allocate.
func FuzzRestore(f *testing.F) {
	su := snapshotSetups()[0]
	seedMachine := su.build()
	if _, paused := seedMachine.RunUntil(0, 500); paused {
		if blob, err := snapshotBytes(seedMachine); err == nil {
			f.Add(blob)
			f.Add(blob[:len(blob)/2])
			// The bare payload, so mutations of real encoder output get
			// reframed into the deep-validation path below.
			f.Add(blob[14 : len(blob)-4])
		}
	}
	f.Add([]byte{})
	f.Add([]byte("CPPE"))
	f.Add([]byte("CPPE\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := su.build()
		_ = m.Restore(data)
		m2 := su.build()
		_ = m2.Restore(reframe(data))
	})
}
