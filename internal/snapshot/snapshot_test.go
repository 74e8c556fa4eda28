package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
)

func frame(t *testing.T, build func(w *Writer)) []byte {
	t.Helper()
	var w Writer
	off := w.BeginFrame()
	build(&w)
	w.EndFrame(off)
	data, err := w.Bytes()
	if err != nil {
		t.Fatalf("frame: %v", err)
	}
	return data
}

func TestRoundTripAllFieldTypes(t *testing.T) {
	data := frame(t, func(w *Writer) {
		w.Mark("TEST")
		w.PutU64(0xdeadbeefcafef00d)
		w.PutU32(0x12345678)
		w.PutInt(-12345)
		w.PutI64(math.MinInt64)
		w.PutF64(3.14159)
		w.PutF64(math.Inf(-1))
		w.PutBytes([]byte{1, 2, 3})
		w.PutBytes(nil)
		w.PutString("hello")
	})
	r, err := Open(data)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	r.ExpectMark("TEST")
	if v := r.GetU64(); v != 0xdeadbeefcafef00d {
		t.Errorf("u64 = %#x", v)
	}
	if v := r.GetU32(); v != 0x12345678 {
		t.Errorf("u32 = %#x", v)
	}
	if v := r.GetInt(); v != -12345 {
		t.Errorf("int = %d", v)
	}
	if v := r.GetI64(); v != math.MinInt64 {
		t.Errorf("i64 = %d", v)
	}
	if v := r.GetF64(); v != 3.14159 {
		t.Errorf("f64 = %v", v)
	}
	if v := r.GetF64(); !math.IsInf(v, -1) {
		t.Errorf("-inf = %v", v)
	}
	if b := r.GetBytes(); string(b) != "\x01\x02\x03" {
		t.Errorf("bytes = %v", b)
	}
	if b := r.GetBytes(); len(b) != 0 {
		t.Errorf("empty bytes = %v", b)
	}
	if s := r.GetString(); s != "hello" {
		t.Errorf("string = %q", s)
	}
	if err := r.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}

func TestOpenRejectsFrameDamage(t *testing.T) {
	data := frame(t, func(w *Writer) { w.PutU64(7) })
	tests := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(d []byte) []byte { return nil }, ErrTruncated},
		{"short", func(d []byte) []byte { return d[:10] }, ErrTruncated},
		{"bad-magic", func(d []byte) []byte { d[0] = 'X'; return d }, ErrBadMagic},
		{"bad-version", func(d []byte) []byte { d[4] = 99; return d }, ErrVersion},
		{"length-overrun", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[6:14], 1<<40)
			return d
		}, ErrTruncated},
		{"length-short", func(d []byte) []byte {
			binary.LittleEndian.PutUint64(d[6:14], 1)
			return d
		}, ErrTruncated},
		{"payload-flip", func(d []byte) []byte { d[14] ^= 0xff; return d }, ErrChecksum},
		{"crc-flip", func(d []byte) []byte { d[len(d)-1] ^= 0xff; return d }, ErrChecksum},
		{"truncated-payload", func(d []byte) []byte { return d[:len(d)-5] }, ErrTruncated},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mut(append([]byte(nil), data...))
			if _, err := Open(mut); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestInPlaceMatchesCopyingFrame pins the format: a frame written in place
// is the bytes of framing the finished payload, header, payload and CRC.
func TestInPlaceMatchesCopyingFrame(t *testing.T) {
	var payload Writer
	payload.Mark("BODY")
	payload.PutString("meta")
	payload.PutU64(0x0102030405060708)
	body, _ := payload.Bytes()
	want := append([]byte(nil), "CPPE"...)
	want = binary.LittleEndian.AppendUint16(want, Version)
	want = binary.LittleEndian.AppendUint64(want, uint64(len(body)))
	want = append(want, body...)
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(want))

	got := frame(t, func(w *Writer) {
		w.Mark("BODY")
		w.PutString("meta")
		w.PutU64(0x0102030405060708)
	})
	if !bytes.Equal(got, want) {
		t.Fatalf("in-place frame differs from the copying frame:\n got %x\nwant %x", got, want)
	}
}

func TestWriterStickyError(t *testing.T) {
	var w Writer
	w.PutU64(1)
	w.EndFrame(2) // no frame header fits after offset 2
	first := w.err
	if first == nil {
		t.Fatal("EndFrame past the buffer did not fail")
	}
	w.PutU64(2)
	w.Mark("MORE")
	w.EndFrame(-1)
	if w.err != first {
		t.Errorf("later failure displaced the first: %v", w.err)
	}
	if _, err := w.Bytes(); err != first {
		t.Errorf("bytes err = %v", err)
	}
	if len(w.buf) != 8 {
		t.Errorf("writes after failure extended the payload to %d bytes", len(w.buf))
	}
}

func TestEndFrameBadOffsetFails(t *testing.T) {
	for _, off := range []int{-1, 2} {
		var w Writer
		w.PutU32(1)
		w.EndFrame(off)
		if _, err := w.Bytes(); err == nil {
			t.Errorf("EndFrame at offset %d of a 4-byte buffer did not fail", off)
		}
	}
}

func TestReaderStickyAfterTruncation(t *testing.T) {
	data := frame(t, func(w *Writer) { w.PutU32(5) })
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if v := r.GetU64(); v != 0 { // needs 8, payload has 4
		t.Errorf("truncated read returned %d", v)
	}
	first := r.err
	if !errors.Is(first, ErrTruncated) {
		t.Fatalf("err = %v", first)
	}
	r.GetU64()
	r.ExpectMark("XXXX")
	if err := r.Close(); err != first {
		t.Errorf("later failure displaced the first: %v", err)
	}
}

func TestCloseRejectsTrailingBytes(t *testing.T) {
	data := frame(t, func(w *Writer) { w.PutU64(1); w.PutU64(2) })
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	r.GetU64()
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("close with trailing bytes: %v", err)
	}
}

func TestExpectMarkMismatch(t *testing.T) {
	data := frame(t, func(w *Writer) { w.Mark("AAAA") })
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	r.ExpectMark("BBBB")
	if err := r.Close(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("mark mismatch: %v", err)
	}
}

func TestGetBytesTruncation(t *testing.T) {
	data := frame(t, func(w *Writer) {
		w.PutU32(1000) // length prefix far beyond the payload
		w.PutU32(1)
	})
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if b := r.GetBytes(); b != nil {
		t.Errorf("bytes = %v", b)
	}
	if err := r.Close(); !errors.Is(err, ErrTruncated) {
		t.Errorf("err = %v", err)
	}
}

func TestEmptyPayloadFrame(t *testing.T) {
	data := frame(t, func(w *Writer) {})
	r, err := Open(data)
	if err != nil {
		t.Fatalf("open empty frame: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
}
