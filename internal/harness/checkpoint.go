package harness

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"

	"github.com/reproductions/cppe/internal/memdef"
)

// A run given a path writes a run record there at each epoch boundary
// (DESIGN.md §10): one frame — magic "CPPE", format version, payload length,
// payload, CRC-32 (IEEE) of everything before it — whose payload is a "CKPT"
// envelope naming the simulation: the key, the session knobs that shape
// workload generation, the derived system configuration JSON (fault
// injection's ChaosSeed included), the generated trace's fingerprint, the
// footprint, and the cycle the run has reached. Integers are fixed-width
// little-endian; strings carry a u32 length prefix. Nothing reads a record
// back: a simulation is deterministic, so a rerun from cycle 0 is the resume.

// recordVersion is the frame's format version. Version 3 is the replay
// record; version 2 files carried encoded machine state.
const recordVersion = 3

// writeRecord atomically replaces path with the run record of k's paused
// run. The temporary file lives in the same directory, so the rename is
// atomic on POSIX filesystems.
func (s *Session) writeRecord(path string, k Key, b *built) error {
	cfgJSON, err := memdef.ConfigJSON(b.cfg)
	if err != nil {
		return fmt.Errorf("harness: run record %v: %w", k, err)
	}
	le := binary.LittleEndian
	buf := le.AppendUint16([]byte("CPPE"), recordVersion)
	buf = le.AppendUint64(buf, 0) // payload length, patched below
	buf = append(buf, "CKPT"...)
	putBytes := func(v []byte) { buf = append(le.AppendUint32(buf, uint32(len(v))), v...) }
	putU64 := func(v uint64) { buf = le.AppendUint64(buf, v) }
	putBytes([]byte(k.Bench))
	putBytes([]byte(k.Setup))
	putU64(uint64(int64(k.OversubPct)))
	putU64(math.Float64bits(s.cfg.Scale))
	putU64(uint64(int64(s.cfg.Warps)))
	putU64(uint64(int64(s.cfg.AccessesPerPage)))
	putU64(uint64(s.cfg.Seed))
	putBytes(cfgJSON)
	putU64(b.traceHash())
	putU64(uint64(int64(b.footprint)))
	putU64(uint64(b.machine.Eng.Now()))
	le.PutUint64(buf[6:14], uint64(len(buf)-14))
	buf = le.AppendUint32(buf, crc32.ChecksumIEEE(buf))

	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("harness: run record %v: %w", k, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("harness: run record %v: %w", k, err)
	}
	return nil
}
