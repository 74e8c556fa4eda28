// Package trace serializes workload access traces to a compact binary format
// so generated workloads can be archived, diffed across generator versions,
// and replayed without regeneration. The format is self-describing and
// versioned:
//
//	magic "CPPETRC1" | footprintPages uvarint | warpCount uvarint |
//	per warp: accessCount uvarint, then per access:
//	  delta-encoded address (zig-zag varint from the previous address)
//	  with the read/write bit folded into the low bit.
//
// Delta encoding exploits the strong spatial locality of GPU traces: typical
// encoded sizes are ~1.5 bytes per access, against the 8-byte memdef.Op a
// trace holds in memory per access.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"github.com/reproductions/cppe/internal/memdef"
)

// magic identifies the format and version.
const magic = "CPPETRC1"

// Trace is a serializable workload: one access stream per warp.
type Trace struct {
	FootprintPages int
	Warps          [][]memdef.Op
}

// ErrBadFormat is returned when the input is not a CPPE trace.
var ErrBadFormat = errors.New("trace: bad magic (not a CPPE trace)")

// zigzag encodes a signed delta as an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write serializes t to w.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(t.FootprintPages)); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(t.Warps))); err != nil {
		return err
	}
	for _, warp := range t.Warps {
		if err := putUvarint(uint64(len(warp))); err != nil {
			return err
		}
		prev := int64(0)
		for _, op := range warp {
			a := op.Access()
			cur := int64(a.Addr)
			delta := zigzag(cur - prev)
			prev = cur
			// Fold the access kind into the low bit.
			word := delta << 1
			if a.Kind == memdef.Write {
				word |= 1
			}
			if err := putUvarint(word); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a trace from r.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(head) != magic {
		return nil, ErrBadFormat
	}
	fp, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: footprint: %w", err)
	}
	warpCount, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: warp count: %w", err)
	}
	const maxWarps = 1 << 20
	if warpCount > maxWarps {
		return nil, fmt.Errorf("trace: implausible warp count %d", warpCount)
	}
	t := &Trace{FootprintPages: int(fp)}
	for wi := 0; wi < int(warpCount); wi++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: warp %d length: %w", wi, err)
		}
		const maxAccesses = 1 << 30
		if n > maxAccesses {
			return nil, fmt.Errorf("trace: implausible access count %d", n)
		}
		// Grow incrementally: a corrupt length must fail on the missing
		// bytes, not pre-allocate gigabytes.
		capHint := n
		if capHint > 4096 {
			capHint = 4096
		}
		warp := make([]memdef.Op, 0, capHint)
		prev := int64(0)
		for i := 0; i < int(n); i++ {
			word, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: warp %d access %d: %w", wi, i, err)
			}
			kind := memdef.Read
			if word&1 != 0 {
				kind = memdef.Write
			}
			prev += unzigzag(word >> 1)
			if prev < 0 {
				return nil, fmt.Errorf("trace: warp %d access %d: negative address", wi, i)
			}
			warp = append(warp, memdef.PackAccess(memdef.Access{Addr: memdef.VirtAddr(prev), Kind: kind}))
		}
		t.Warps = append(t.Warps, warp)
	}
	return t, nil
}

// Stats summarizes a trace's page-level structure.
type Stats struct {
	Accesses       int
	Reads, Writes  int
	TouchedPages   int
	TouchedChunks  int
	FootprintPages int
}

// Summarize computes trace statistics.
func Summarize(t *Trace) Stats {
	s := Stats{FootprintPages: t.FootprintPages}
	pages := map[memdef.PageNum]struct{}{}
	chunks := map[memdef.ChunkID]struct{}{}
	for _, warp := range t.Warps {
		for _, op := range warp {
			a := op.Access()
			s.Accesses++
			if a.Kind == memdef.Write {
				s.Writes++
			} else {
				s.Reads++
			}
			pages[a.Addr.Page()] = struct{}{}
			chunks[a.Addr.Chunk()] = struct{}{}
		}
	}
	s.TouchedPages = len(pages)
	s.TouchedChunks = len(chunks)
	return s
}
