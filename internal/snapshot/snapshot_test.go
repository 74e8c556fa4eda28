package snapshot

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

func frame(t *testing.T, build func(w *Writer)) []byte {
	t.Helper()
	w := NewWriter(64)
	off := w.BeginFrame()
	build(w)
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
		w.PutU16(0xabcd)
		w.PutU8(0x42)
		w.PutBool(true)
		w.PutBool(false)
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
	if v := r.GetU16(); v != 0xabcd {
		t.Errorf("u16 = %#x", v)
	}
	if v := r.GetU8(); v != 0x42 {
		t.Errorf("u8 = %#x", v)
	}
	if !r.GetBool() || r.GetBool() {
		t.Error("bools did not round-trip")
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

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(0)
	w.PutU64(1)
	boom := errors.New("boom")
	w.Fail(boom)
	w.PutU64(2)
	w.Mark("MORE")
	w.Fail(errors.New("second error must not displace the first"))
	if w.Err() != boom {
		t.Errorf("err = %v", w.Err())
	}
	if _, err := w.Bytes(); err != boom {
		t.Errorf("bytes err = %v", err)
	}
	if w.Len() != 8 {
		t.Errorf("writes after failure extended the payload to %d bytes", w.Len())
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
	first := r.Err()
	if !errors.Is(first, ErrTruncated) {
		t.Fatalf("err = %v", first)
	}
	r.GetU64()
	r.ExpectMark("XXXX")
	if r.Err() != first {
		t.Errorf("later failure displaced the first: %v", r.Err())
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

func TestGetBoolRejectsJunk(t *testing.T) {
	data := frame(t, func(w *Writer) { w.PutU8(2) })
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	r.GetBool()
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("bool byte 2: %v", r.Err())
	}
}

func TestExpectMarkMismatch(t *testing.T) {
	data := frame(t, func(w *Writer) { w.Mark("AAAA") })
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	r.ExpectMark("BBBB")
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("mark mismatch: %v", r.Err())
	}
}

func TestGetCountBoundsAllocations(t *testing.T) {
	data := frame(t, func(w *Writer) {
		w.PutU64(1 << 60) // implausible count
	})
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.GetCount(8); n != 0 {
		t.Errorf("count = %d", n)
	}
	if !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("err = %v", r.Err())
	}

	// A plausible count passes.
	data = frame(t, func(w *Writer) {
		w.PutU64(2)
		w.PutU64(10)
		w.PutU64(20)
	})
	r, err = Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.GetCount(8); n != 2 {
		t.Errorf("count = %d (err %v)", n, r.Err())
	}
}

func TestGetBytesTruncation(t *testing.T) {
	data := frame(t, func(w *Writer) {
		w.PutU32(1000) // length prefix far beyond the payload
		w.PutU8(1)
	})
	r, err := Open(data)
	if err != nil {
		t.Fatal(err)
	}
	if b := r.GetBytes(); b != nil {
		t.Errorf("bytes = %v", b)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("err = %v", r.Err())
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
