// Package wire is the little-endian codec behind the repository's two
// binary formats: the model weights (lhmm-weights, package nn) and the
// durable streaming session (lhmm-session, package core). Each format
// keeps its own magic, version, CRC table and field layout; this
// package holds only what they share.
//
// A Writer appends fixed-width fields to a byte slice. A Reader consumes
// them with a sticky, bounds-checked error: the first short read or
// structural failure (Failf) records one error carrying its offset, and
// every later read returns zero without touching the input. A decoder
// built on it therefore never panics on arbitrary bytes, and because it
// asks Fits before it allocates for a declared count, its allocation
// follows the bytes present, not the counts a header declares.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Writer appends little-endian fields to Buf.
type Writer struct{ Buf []byte }

func (w *Writer) U8(v uint8)     { w.Buf = append(w.Buf, v) }
func (w *Writer) U16(v uint16)   { w.Buf = binary.LittleEndian.AppendUint16(w.Buf, v) }
func (w *Writer) U32(v uint32)   { w.Buf = binary.LittleEndian.AppendUint32(w.Buf, v) }
func (w *Writer) U64(v uint64)   { w.Buf = binary.LittleEndian.AppendUint64(w.Buf, v) }
func (w *Writer) F64(v float64)  { w.U64(math.Float64bits(v)) }
func (w *Writer) Bytes(p []byte) { w.Buf = append(w.Buf, p...) }

// F64s appends the raw bits of every value in vs.
func (w *Writer) F64s(vs []float64) {
	for _, v := range vs {
		w.F64(v)
	}
}

// Bool appends b as one byte, 0 or 1.
func (w *Writer) Bool(b bool) {
	if b {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Seal appends the CRC-32 of everything written so far, under tab, and
// returns the finished buffer.
func (w *Writer) Seal(tab *crc32.Table) []byte {
	w.U32(crc32.Checksum(w.Buf, tab))
	return w.Buf
}

// Open checks the CRC-32 footer that Seal appends, under tab, and
// returns the body before it.
func Open(data []byte, tab *crc32.Table) ([]byte, error) {
	if len(data) < 4 {
		return nil, errors.New("truncated: no CRC footer")
	}
	body := data[:len(data)-4]
	got, want := crc32.Checksum(body, tab), binary.LittleEndian.Uint32(data[len(data)-4:])
	if got != want {
		return nil, fmt.Errorf("CRC mismatch: %08x, footer says %08x", got, want)
	}
	return body, nil
}

// Reader consumes little-endian fields from a byte slice. Its zero value
// reads nothing; NewReader starts one at the slice's first byte.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first error the Reader recorded, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of bytes left to read.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Failf records a structural error at the current offset, unless one is
// recorded already: only the first failure is reported.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%s (offset %d)", fmt.Sprintf(format, args...), r.off)
	}
}

// Bytes returns the next n bytes (aliasing the input), or nil once the
// Reader has failed or fewer than n bytes are left.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Failf("truncated: need %d bytes, %d left", n, r.Len())
		return nil
	}
	p := r.buf[r.off : r.off+n]
	r.off += n
	return p
}

func (r *Reader) U8() uint8 {
	if p := r.Bytes(1); p != nil {
		return p[0]
	}
	return 0
}

func (r *Reader) U16() uint16 {
	if p := r.Bytes(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if p := r.Bytes(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if p := r.Bytes(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Failf("flag byte %d is not 0 or 1", v)
	}
	return v == 1
}

// Fits reports whether count records of size (≥ 1) bytes each are left
// to read, failing the Reader as truncated when they are not. A decoder
// asks before it allocates for a count its input declares, so the
// allocation cannot outgrow the input.
func (r *Reader) Fits(count uint64, size int) bool {
	if r.err == nil && count > uint64(r.Len())/uint64(size) {
		r.Failf("truncated: %d records of %d bytes, %d bytes left", count, size, r.Len())
	}
	return r.err == nil
}

// F64s reads n raw float64s in one pass. It returns nil for n = 0 and
// once the Reader has failed; n values that do not fit fail it first.
func (r *Reader) F64s(n int) []float64 {
	if n == 0 || !r.Fits(uint64(n), 8) {
		return nil
	}
	b := r.Bytes(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
