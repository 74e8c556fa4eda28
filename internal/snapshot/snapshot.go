// Package snapshot implements the binary frame of checkpoint files: a
// versioned, CRC-checksummed frame around a sequence of fixed-width
// little-endian fields (DESIGN.md §10). A checkpoint is a replay record, so
// the only payload is the harness's "CKPT" envelope.
//
// The format is deliberately primitive: no reflection, no varints, no
// self-describing schema. The writer puts its fields in a fixed order and the
// reader gets them back in the same order; a section mark (Mark/ExpectMark)
// catches writer/reader drift early with a structured error instead of
// silently misinterpreting downstream bytes. Both Writer and Reader are
// sticky-error: after the first failure every subsequent call is a no-op, so
// callers can run straight-line without per-field error checks and inspect
// the error once at the end.
//
// Frame layout:
//
//	[0:4)   magic "CPPE"
//	[4:6)   format version (u16 LE)
//	[6:14)  payload length (u64 LE)
//	[14:n)  payload
//	[n:n+4) CRC-32 (IEEE) of bytes [0:n)
//
// Writer.BeginFrame writes the header with a length placeholder and
// Writer.EndFrame patches the length and appends the CRC.
//
// Decoding never panics on malformed input: truncations, bit flips, bad
// lengths and version skew all surface as wrapped ErrTruncated / ErrChecksum /
// ErrVersion / ErrBadMagic / ErrCorrupt values.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Version is the current checkpoint format version. Any change to the frame
// or the envelope must bump it; readers reject every other version. Version 3
// is the replay record; version 2 files carried encoded machine state.
const Version uint16 = 3

var magic = [4]byte{'C', 'P', 'P', 'E'}

// frameHeader is the size of a frame's magic, version and length fields.
const frameHeader = 4 + 2 + 8

// Structured decode failures. All errors returned by Open/Reader wrap one of
// these, so callers can classify failures with errors.Is.
var (
	// ErrBadMagic means the file does not start with the checkpoint magic.
	ErrBadMagic = errors.New("snapshot: bad magic (not a checkpoint file)")
	// ErrVersion means the checkpoint was written by an incompatible format
	// version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrTruncated means the input ended before the declared payload.
	ErrTruncated = errors.New("snapshot: truncated input")
	// ErrChecksum means the CRC-32 over the frame did not match.
	ErrChecksum = errors.New("snapshot: checksum mismatch")
	// ErrCorrupt means the payload was framed correctly but its contents are
	// structurally invalid (bad section mark, trailing bytes, or a field
	// value the reader's caller rejected).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// Writer accumulates checkpoint bytes in one buffer: a frame is opened and
// closed in place (BeginFrame/EndFrame) around the fields Put between them.
// The zero value is ready to use. All Put methods are sticky-error no-ops
// after the first failure.
type Writer struct {
	buf []byte
	err error
}

// fail records err (if the writer has not already failed) and makes all
// subsequent Put calls no-ops.
func (w *Writer) fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// PutU64 appends v as 8 little-endian bytes.
func (w *Writer) PutU64(v uint64) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// PutU32 appends v as 4 little-endian bytes.
func (w *Writer) PutU32(v uint32) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// PutInt appends v as a u64 two's-complement value.
func (w *Writer) PutInt(v int) { w.PutU64(uint64(int64(v))) }

// PutI64 appends v as a u64 two's-complement value.
func (w *Writer) PutI64(v int64) { w.PutU64(uint64(v)) }

// PutF64 appends the IEEE-754 bit pattern of v.
func (w *Writer) PutF64(v float64) { w.PutU64(math.Float64bits(v)) }

// PutBytes appends a u32 length prefix followed by the raw bytes.
func (w *Writer) PutBytes(b []byte) {
	w.PutU32(uint32(len(b)))
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, b...)
}

// PutString appends s with a u32 length prefix.
func (w *Writer) PutString(s string) {
	w.PutU32(uint32(len(s)))
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, s...)
}

// Mark appends a 4-byte section marker. The matching ExpectMark in the
// reader verifies writer and reader are aligned at section boundaries.
func (w *Writer) Mark(tag string) {
	if w.err != nil {
		return
	}
	var m [4]byte
	copy(m[:], tag)
	w.buf = append(w.buf, m[:]...)
}

// BeginFrame opens a frame in place at the end of the buffer: it writes the
// magic, the version and a length placeholder, and returns the frame's offset
// for the matching EndFrame.
func (w *Writer) BeginFrame() int {
	off := len(w.buf)
	if w.err != nil {
		return off
	}
	w.buf = append(w.buf, magic[:]...)
	w.buf = binary.LittleEndian.AppendUint16(w.buf, Version)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, 0)
	return off
}

// EndFrame closes the frame BeginFrame opened at off: it patches the payload
// length (everything written since the header) and appends the CRC-32 of the
// whole frame.
func (w *Writer) EndFrame(off int) {
	if w.err != nil {
		return
	}
	if off < 0 || off+frameHeader > len(w.buf) {
		w.fail(fmt.Errorf("snapshot: EndFrame at offset %d of a %d-byte buffer", off, len(w.buf)))
		return
	}
	binary.LittleEndian.PutUint64(w.buf[off+6:off+frameHeader], uint64(len(w.buf)-off-frameHeader))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf[off:]))
}

// Bytes returns everything written so far, or the first error. The slice
// aliases the writer's buffer: it is valid until the next Put.
func (w *Writer) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// Reader consumes a checkpoint payload. All Get methods are sticky-error:
// after the first failure they return zero values, and Close reports the
// failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// Open validates the magic, version, declared length and CRC of a complete
// checkpoint file and returns a Reader positioned at the start of the
// payload.
func Open(data []byte) (*Reader, error) {
	if len(data) < frameHeader+4 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal frame", ErrTruncated, len(data))
	}
	if [4]byte(data[0:4]) != magic {
		return nil, ErrBadMagic
	}
	ver := binary.LittleEndian.Uint16(data[4:6])
	if ver != Version {
		return nil, fmt.Errorf("%w: file version %d, supported version %d", ErrVersion, ver, Version)
	}
	plen := binary.LittleEndian.Uint64(data[6:frameHeader])
	if plen > uint64(len(data)) || uint64(len(data)) != frameHeader+plen+4 {
		return nil, fmt.Errorf("%w: declared payload %d bytes, file has %d", ErrTruncated, plen, len(data))
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != want {
		return nil, fmt.Errorf("%w: crc %08x, want %08x", ErrChecksum, crc32.ChecksumIEEE(body), want)
	}
	return &Reader{buf: data[frameHeader : frameHeader+plen]}, nil
}

// fail records err (if the reader has not already failed).
func (r *Reader) fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// failf records a formatted ErrCorrupt-wrapped error.
func (r *Reader) failf(format string, args ...any) {
	r.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// Close verifies the payload was consumed exactly and returns the first
// error, if any.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.buf) {
		r.failf("%d trailing payload bytes", len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if remaining := len(r.buf) - r.off; remaining < n {
		r.fail(fmt.Errorf("%w: need %d bytes, %d remain", ErrTruncated, n, remaining))
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// GetU64 reads 8 little-endian bytes.
func (r *Reader) GetU64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// GetU32 reads 4 little-endian bytes.
func (r *Reader) GetU32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// GetInt reads a u64 and returns it as an int.
func (r *Reader) GetInt() int { return int(int64(r.GetU64())) }

// GetI64 reads a u64 and returns it as an int64.
func (r *Reader) GetI64() int64 { return int64(r.GetU64()) }

// GetF64 reads an IEEE-754 bit pattern.
func (r *Reader) GetF64() float64 { return math.Float64frombits(r.GetU64()) }

// GetBytes reads a u32 length prefix and that many bytes. The returned slice
// aliases the checkpoint buffer; copy it if it must outlive the Reader.
func (r *Reader) GetBytes() []byte {
	n := int(r.GetU32())
	if r.err != nil {
		return nil
	}
	return r.take(n)
}

// GetString reads a u32 length prefix and that many bytes as a string.
func (r *Reader) GetString() string { return string(r.GetBytes()) }

// ExpectMark consumes a 4-byte section marker and fails with ErrCorrupt if it
// does not match tag.
func (r *Reader) ExpectMark(tag string) {
	var want [4]byte
	copy(want[:], tag)
	b := r.take(4)
	if b == nil {
		return
	}
	if [4]byte(b) != want {
		r.failf("section mark %q, want %q", b, want[:])
	}
}
