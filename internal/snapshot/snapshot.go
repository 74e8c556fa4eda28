// Package snapshot implements the deterministic binary checkpoint format for
// the simulator: a versioned, CRC-checksummed frame around a sequence of
// fixed-width little-endian fields written by per-subsystem encoders
// (DESIGN.md §10).
//
// The format is deliberately primitive: no reflection, no varints, no
// self-describing schema. Every encoder writes its fields in a fixed order and
// the matching decoder reads them back in the same order; section marks
// (Mark/ExpectMark) catch encoder/decoder drift early with a structured error
// instead of silently misinterpreting downstream bytes. Both Writer and
// Reader are sticky-error: after the first failure every subsequent call is a
// no-op, so encoders and decoders can run straight-line without per-field
// error checks and inspect Err once at the end.
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
// Writer.EndFrame patches the length and appends the CRC, so frames nest
// inside one buffer.
//
// Decoding never panics on malformed input: truncations, bit flips, bad
// counts and version skew all surface as wrapped ErrTruncated / ErrChecksum /
// ErrVersion / ErrBadMagic / ErrCorrupt values.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Version is the current checkpoint format version. Any change to any
// subsystem encoder must bump it; decoders reject every other version.
const Version uint16 = 2

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
	// structurally invalid (bad section mark, implausible count, trailing
	// bytes, or a field value a decoder rejected).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// Writer accumulates checkpoint bytes in one buffer: frames are opened and
// closed in place (BeginFrame/EndFrame) around the fields encoders Put, so a
// nested checkpoint is written once, without copying a payload into its frame.
// The zero value is ready to use. All Put methods are sticky-error no-ops
// after the first failure.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	if sizeHint < 0 {
		sizeHint = 0
	}
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Err returns the first error recorded by any Put or Fail call.
func (w *Writer) Err() error { return w.err }

// Fail records err (if the writer has not already failed) and makes all
// subsequent Put calls no-ops. Encoders use it to refuse unserializable
// states (for example, an in-flight event with no tag).
func (w *Writer) Fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Len returns the current payload length in bytes.
func (w *Writer) Len() int { return len(w.buf) }

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

// PutU16 appends v as 2 little-endian bytes.
func (w *Writer) PutU16(v uint16) {
	if w.err != nil {
		return
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
}

// PutU8 appends one byte.
func (w *Writer) PutU8(v uint8) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, v)
}

// PutBool appends one byte, 1 for true.
func (w *Writer) PutBool(v bool) {
	if v {
		w.PutU8(1)
	} else {
		w.PutU8(0)
	}
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
// decoder verifies encoder and decoder are aligned at section boundaries.
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
// for the matching EndFrame. Frames nest: a frame opened inside another is
// part of the outer frame's payload.
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
		w.Fail(fmt.Errorf("snapshot: EndFrame at offset %d of a %d-byte buffer", off, len(w.buf)))
		return
	}
	binary.LittleEndian.PutUint64(w.buf[off+6:off+frameHeader], uint64(len(w.buf)-off-frameHeader))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.ChecksumIEEE(w.buf[off:]))
}

// BeginBytes reserves the u32 length prefix of a byte field whose contents
// are written in place by later Put calls, and returns its offset for the
// matching EndBytes. The result reads back with GetBytes like PutBytes.
func (w *Writer) BeginBytes() int {
	off := len(w.buf)
	w.PutU32(0)
	return off
}

// EndBytes patches the length prefix BeginBytes reserved at off with the
// number of bytes written since.
func (w *Writer) EndBytes(off int) {
	if w.err != nil {
		return
	}
	if off < 0 || off+4 > len(w.buf) {
		w.Fail(fmt.Errorf("snapshot: EndBytes at offset %d of a %d-byte buffer", off, len(w.buf)))
		return
	}
	n := len(w.buf) - off - 4
	if n > math.MaxUint32 {
		w.Fail(fmt.Errorf("snapshot: %d-byte field overflows its u32 length", n))
		return
	}
	binary.LittleEndian.PutUint32(w.buf[off:off+4], uint32(n))
}

// Reserve appends n bytes and returns them as a Section for the caller to
// fill, so a bulk encoder can write a run of fixed-width records in one loop
// instead of one sticky-error Put per field. It returns nil after a failure.
func (w *Writer) Reserve(n int) Section {
	if w.err != nil {
		return nil
	}
	if n < 0 {
		w.Fail(fmt.Errorf("snapshot: reserve of %d bytes", n))
		return nil
	}
	w.buf = slices.Grow(w.buf, n)
	off := len(w.buf)
	w.buf = w.buf[:off+n]
	return w.buf[off:]
}

// Section is a run of bytes reserved in a Writer. Its Put methods write the
// encoding of the Writer method of the same name at the start of the section
// and return the rest, so records chain: s = s.PutU64(a).PutBool(b). Writing
// past the reserved length panics.
type Section []byte

// PutU64 writes v as 8 little-endian bytes.
func (s Section) PutU64(v uint64) Section {
	binary.LittleEndian.PutUint64(s, v)
	return s[8:]
}

// PutBool writes one byte, 1 for true.
func (s Section) PutBool(v bool) Section {
	s[0] = 0
	if v {
		s[0] = 1
	}
	return s[1:]
}

// Reset empties the writer and clears its error, keeping the buffer's
// capacity, so one Writer can encode checkpoint after checkpoint without
// reallocating.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.err = nil
}

// Bytes returns everything written so far, or the first error. The slice
// aliases the writer's buffer: it is valid until the next Put or Reset.
func (w *Writer) Bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// Reader consumes a checkpoint payload. All Get methods are sticky-error:
// after the first failure they return zero values. Check Err (or use the
// per-section ExpectMark guards) to detect failure.
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

// Err returns the first decode error.
func (r *Reader) Err() error { return r.err }

// Fail records err (if the reader has not already failed).
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Failf records a formatted ErrCorrupt-wrapped error.
func (r *Reader) Failf(format string, args ...any) {
	r.Fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// Remaining returns the number of unread payload bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Close verifies the payload was consumed exactly and returns the first
// error, if any.
func (r *Reader) Close() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Failf("%d trailing payload bytes", len(r.buf)-r.off)
	}
	return r.err
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.Fail(fmt.Errorf("%w: need %d bytes, %d remain", ErrTruncated, n, r.Remaining()))
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

// GetU16 reads 2 little-endian bytes.
func (r *Reader) GetU16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

// GetU8 reads one byte.
func (r *Reader) GetU8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// GetBool reads one byte and rejects values other than 0 and 1.
func (r *Reader) GetBool() bool {
	v := r.GetU8()
	if v > 1 {
		r.Failf("bool byte %d", v)
		return false
	}
	return v == 1
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
	if n > r.Remaining() {
		r.Fail(fmt.Errorf("%w: byte field of %d bytes, %d remain", ErrTruncated, n, r.Remaining()))
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
		r.Failf("section mark %q, want %q", b, want[:])
	}
}

// GetCount reads a u64 element count and rejects counts that cannot possibly
// fit in the remaining payload given a minimum encoded size per element. This
// bounds allocations when decoding corrupted or adversarial input.
func (r *Reader) GetCount(minBytesPerElem int) int {
	n := r.GetU64()
	if r.err != nil {
		return 0
	}
	if minBytesPerElem < 1 {
		minBytesPerElem = 1
	}
	if n > uint64(r.Remaining()/minBytesPerElem) {
		r.Failf("count %d exceeds remaining payload (%d bytes, ≥%d per element)", n, r.Remaining(), minBytesPerElem)
		return 0
	}
	return int(n)
}
