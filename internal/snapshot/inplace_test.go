package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// nested writes the shape of a harness checkpoint: an outer frame whose
// payload holds a mark, a field, and an inner frame behind a u32 length
// prefix written in place.
func nested(w *Writer) {
	outer := w.BeginFrame()
	w.Mark("OUTR")
	w.PutString("meta")
	blob := w.BeginBytes()
	inner := w.BeginFrame()
	w.Mark("INNR")
	w.PutU64(0x0102030405060708)
	if b := w.Reserve(3); b != nil {
		copy(b, "abc")
	}
	w.EndFrame(inner)
	w.EndBytes(blob)
	w.PutU32(0xfeedface)
	w.EndFrame(outer)
}

// legacyFrame frames payload the way a copying encoder does: header, payload,
// CRC over both. In-place frames must produce exactly these bytes.
func legacyFrame(payload []byte) []byte {
	out := append([]byte(nil), "CPPE"...)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
}

func TestNestedFramesOpen(t *testing.T) {
	w := NewWriter(0)
	nested(w)
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(data)
	if err != nil {
		t.Fatalf("open outer: %v", err)
	}
	r.ExpectMark("OUTR")
	if s := r.GetString(); s != "meta" {
		t.Errorf("string = %q", s)
	}
	blob := r.GetBytes()
	if v := r.GetU32(); v != 0xfeedface {
		t.Errorf("trailing u32 = %#x", v)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close outer: %v", err)
	}
	ir, err := Open(blob)
	if err != nil {
		t.Fatalf("open inner: %v", err)
	}
	ir.ExpectMark("INNR")
	if v := ir.GetU64(); v != 0x0102030405060708 {
		t.Errorf("inner u64 = %#x", v)
	}
	if b := ir.take(3); string(b) != "abc" {
		t.Errorf("reserved bytes = %q", b)
	}
	if err := ir.Close(); err != nil {
		t.Fatalf("close inner: %v", err)
	}
}

// TestInPlaceMatchesCopyingFrame pins the format: writing frames in place
// yields the bytes of framing a finished payload, nested frames included.
func TestInPlaceMatchesCopyingFrame(t *testing.T) {
	var inner, outer Writer
	inner.Mark("INNR")
	inner.PutU64(0x0102030405060708)
	inner.PutU8('a')
	inner.PutU8('b')
	inner.PutU8('c')
	innerPayload, _ := inner.Bytes()
	outer.Mark("OUTR")
	outer.PutString("meta")
	outer.PutBytes(legacyFrame(innerPayload))
	outer.PutU32(0xfeedface)
	outerPayload, _ := outer.Bytes()
	want := legacyFrame(outerPayload)

	w := NewWriter(0)
	nested(w)
	got, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place frame differs from the copying frame:\n got %x\nwant %x", got, want)
	}
}

// TestNestedFrameDamage truncates and bit-flips a nested checkpoint at every
// framing boundary of both frames; each damage is a typed error from the
// outer Open or, behind a valid outer frame, from the inner one.
func TestNestedFrameDamage(t *testing.T) {
	w := NewWriter(0)
	nested(w)
	data, _ := w.Bytes()
	// Outer header 14 bytes, mark 4, string 4+4, then the u32 blob prefix.
	blobOff := frameHeader + 4 + 8
	innerOff := blobOff + 4
	innerLen := int(binary.LittleEndian.Uint32(data[blobOff:]))
	innerEnd := innerOff + innerLen
	boundaries := []int{
		0, 4, 6, frameHeader, // outer magic, version, length, payload
		blobOff, innerOff, innerOff + 4, innerOff + 6, innerOff + frameHeader, // blob prefix, inner header
		innerEnd - 4, innerEnd, // inner CRC, trailing field
		len(data) - 4, // outer CRC
	}
	openBoth := func(d []byte) error {
		r, err := Open(d)
		if err != nil {
			return err
		}
		r.ExpectMark("OUTR")
		r.GetString()
		blob := r.GetBytes()
		r.GetU32()
		if err := r.Close(); err != nil {
			return err
		}
		_, err = Open(blob)
		return err
	}
	typed := []error{ErrBadMagic, ErrVersion, ErrTruncated, ErrChecksum, ErrCorrupt}
	isTyped := func(err error) bool {
		for _, e := range typed {
			if errors.Is(err, e) {
				return true
			}
		}
		return false
	}
	for _, b := range boundaries {
		if err := openBoth(data[:b]); !isTyped(err) {
			t.Errorf("truncated at %d: err = %v, want a typed error", b, err)
		}
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[b] ^= 1 << bit
			if err := openBoth(mut); !isTyped(err) {
				t.Errorf("bit %d flipped at %d: err = %v, want a typed error", bit, b, err)
			}
		}
	}
	// A bit flip inside the inner frame, re-sealed under a valid outer CRC,
	// must still be caught by the inner frame's own checks.
	for _, b := range []int{innerOff, innerOff + 4, innerOff + 6, innerOff + frameHeader, innerEnd - 1} {
		mut := append([]byte(nil), data...)
		mut[b] ^= 0x10
		binary.LittleEndian.PutUint32(mut[len(mut)-4:], crc32.ChecksumIEEE(mut[:len(mut)-4]))
		if err := openBoth(mut); !isTyped(err) {
			t.Errorf("re-sealed flip at %d: err = %v, want a typed error", b, err)
		}
	}
}

func TestResetWriterReproducesBytes(t *testing.T) {
	w := NewWriter(0)
	nested(w)
	first, _ := w.Bytes()
	first = append([]byte(nil), first...)
	capBefore := cap(w.buf)

	w.Fail(errors.New("stale error"))
	w.Reset()
	if w.Err() != nil || w.Len() != 0 {
		t.Fatalf("reset left err=%v len=%d", w.Err(), w.Len())
	}
	nested(w)
	second, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("a reset writer wrote different bytes")
	}
	if cap(w.buf) != capBefore {
		t.Errorf("reset writer regrew its buffer: cap %d -> %d", capBefore, cap(w.buf))
	}
}

func TestEndFrameBadOffsetFails(t *testing.T) {
	w := NewWriter(0)
	w.PutU32(1)
	w.EndFrame(2) // no frame header fits after offset 2
	if w.Err() == nil {
		t.Error("EndFrame past the buffer did not fail")
	}
	w.Reset()
	w.EndBytes(-1)
	if w.Err() == nil {
		t.Error("EndBytes at a negative offset did not fail")
	}
	w.Reset()
	if b := w.Reserve(-1); b != nil || w.Err() == nil {
		t.Error("negative Reserve did not fail")
	}
}

// TestSectionMatchesPuts: records written through a reserved Section are the
// bytes of the equivalent Writer Puts, and the section ends exactly filled.
func TestSectionMatchesPuts(t *testing.T) {
	type rec struct {
		a    uint64
		b, c bool
		d    uint64
	}
	recs := []rec{{1, true, false, 1 << 63}, {0xdeadbeef, false, true, 0}, {0, false, false, 42}}
	const size = 8 + 1 + 1 + 8

	var puts Writer
	puts.Mark("SECT")
	for _, r := range recs {
		puts.PutU64(r.a)
		puts.PutBool(r.b)
		puts.PutBool(r.c)
		puts.PutU64(r.d)
	}
	want, _ := puts.Bytes()

	var w Writer
	w.Mark("SECT")
	sec := w.Reserve(size * len(recs))
	for _, r := range recs {
		sec = sec.PutU64(r.a).PutBool(r.b).PutBool(r.c).PutU64(r.d)
	}
	if len(sec) != 0 {
		t.Errorf("%d reserved bytes left unwritten", len(sec))
	}
	got, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("section bytes differ from per-field Puts:\n got %x\nwant %x", got, want)
	}
}
