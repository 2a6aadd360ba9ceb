package wire

import (
	"bytes"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var w Writer
	w.U8(0xAB)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.F64(-2.5)
	w.Bytes([]byte("id"))
	w.Bool(true)
	w.Bool(false)
	if len(w.Buf) != 1+2+4+8+8+2+1+1 {
		t.Fatalf("wrote %d bytes", len(w.Buf))
	}
	r := NewReader(w.Buf)
	if r.U8() != 0xAB || r.U16() != 0xBEEF || r.U32() != 0xDEADBEEF || r.U64() != 0x0123456789ABCDEF ||
		r.F64() != -2.5 || string(r.Bytes(2)) != "id" || !r.Bool() || r.Bool() {
		t.Fatal("fields read back differ from those written")
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}
}

// After the first short read every later read returns zero, and the
// error reported is that first one, with its offset.
func TestShortReadIsSticky(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4, 5, 6})
	if r.U32() != 0x04030201 {
		t.Fatal("first u32")
	}
	if v := r.U32(); v != 0 {
		t.Fatalf("short u32 read %#x", v)
	}
	first := r.Err()
	if first == nil || !strings.Contains(first.Error(), "truncated") || !strings.Contains(first.Error(), "offset 4") {
		t.Fatalf("short read: err %v, want a truncation at offset 4", first)
	}
	// Two bytes are left, but the failed reader hands none of them out.
	if r.U8() != 0 || r.U16() != 0 || r.U64() != 0 || r.F64() != 0 || r.Bool() || r.Bytes(1) != nil || r.F64s(1) != nil {
		t.Fatal("a read after the failure returned data")
	}
	r.Failf("later structural failure")
	if r.Fits(0, 1) {
		t.Fatal("Fits passed on a failed reader")
	}
	if r.Err() != first {
		t.Fatalf("err %v replaced the first failure %v", r.Err(), first)
	}
	if r.Len() != 2 {
		t.Fatalf("failed reads advanced the offset: %d bytes left", r.Len())
	}
}

func TestFailfRecordsOffset(t *testing.T) {
	r := NewReader(make([]byte, 10))
	r.U16()
	r.Failf("unknown mode %d", 7)
	if err := r.Err(); err == nil || err.Error() != "unknown mode 7 (offset 2)" {
		t.Fatalf("err %v", err)
	}
}

// Fits refuses a count the remaining bytes cannot hold, without
// allocating, and F64s asks it before making the slice.
func TestFitsRefusesOversizedCount(t *testing.T) {
	data := make([]byte, 64)
	for _, tc := range []struct {
		count uint64
		size  int
		ok    bool
	}{
		{8, 8, true},
		{9, 8, false},
		{64, 1, true},
		{1 << 40, 16, false},
		{math.MaxUint64, 1, false},
	} {
		r := NewReader(data)
		if got := r.Fits(tc.count, tc.size); got != tc.ok {
			t.Errorf("Fits(%d, %d) over 64 bytes = %v", tc.count, tc.size, got)
		}
		if !tc.ok && (r.Err() == nil || !strings.Contains(r.Err().Error(), "truncated")) {
			t.Errorf("Fits(%d, %d): err %v, want a truncation", tc.count, tc.size, r.Err())
		}
	}
	// Only the error is allocated: a few hundred bytes, not 8 TiB.
	for name, refuse := range map[string]func(r *Reader){
		"Fits": func(r *Reader) { r.Fits(1<<40, 8) },
		"F64s": func(r *Reader) {
			if r.F64s(1<<40) != nil {
				t.Error("F64s returned values it could not read")
			}
		},
	} {
		if b := allocBytes(func() { refuse(NewReader(data)) }); b > 1024 {
			t.Errorf("a refused %s allocated %d bytes", name, b)
		}
	}
	r := NewReader(data)
	if r.F64s(-1) != nil || r.Err() == nil {
		t.Error("F64s(-1) did not fail the reader")
	}
}

// allocBytes returns the bytes f allocates, averaged over 100 calls.
func allocBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / 100
}

// F64s carries raw bits: −0, NaN payloads and ±Inf round-trip exactly.
func TestF64sBitExact(t *testing.T) {
	bits := []uint64{
		math.Float64bits(math.Copysign(0, -1)),
		0x7FF8000000000001, // quiet NaN, payload 1
		0x7FF0000000000001, // signalling NaN
		0xFFF8DEADBEEF0000, // negative NaN with a payload
		math.Float64bits(math.Inf(1)),
		math.Float64bits(math.Inf(-1)),
		1, // smallest subnormal
		math.Float64bits(math.Pi),
	}
	vs := make([]float64, len(bits))
	for i, b := range bits {
		vs[i] = math.Float64frombits(b)
	}
	var w Writer
	w.F64s(vs)
	r := NewReader(w.Buf)
	got := r.F64s(len(vs))
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Len())
	}
	for i, v := range got {
		if math.Float64bits(v) != bits[i] {
			t.Errorf("value %d: bits %#x, wrote %#x", i, math.Float64bits(v), bits[i])
		}
	}
	if r := NewReader(w.Buf); r.F64s(0) != nil || r.Len() != len(w.Buf) {
		t.Error("F64s(0) read something")
	}
}

func TestBoolStrict(t *testing.T) {
	r := NewReader([]byte{0, 1, 2, 1})
	if r.Bool() || !r.Bool() {
		t.Fatal("0 and 1 misread")
	}
	if r.Bool() {
		t.Error("flag byte 2 read as true")
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "flag byte 2") {
		t.Fatalf("flag byte 2: err %v", err)
	}
	if r.Bool() {
		t.Error("a read after the failure returned true")
	}
}

func TestSealOpen(t *testing.T) {
	for _, tab := range []*crc32.Table{crc32.IEEETable, crc32.MakeTable(crc32.Castagnoli)} {
		w := Writer{Buf: []byte("body")}
		data := w.Seal(tab)
		body, err := Open(data, tab)
		if err != nil || !bytes.Equal(body, []byte("body")) {
			t.Fatalf("Open(Seal) = %q, %v", body, err)
		}
		bad := append([]byte(nil), data...)
		bad[0] ^= 1
		if _, err := Open(bad, tab); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Errorf("flipped bit: err %v, want a CRC mismatch", err)
		}
		if _, err := Open(data[:3], tab); err == nil {
			t.Error("3 bytes opened")
		}
	}
	// The table is part of the format: IEEE and Castagnoli footers differ.
	w := Writer{Buf: []byte("body")}
	if _, err := Open(w.Seal(crc32.IEEETable), crc32.MakeTable(crc32.Castagnoli)); err == nil {
		t.Error("an IEEE footer opened under Castagnoli")
	}
}
