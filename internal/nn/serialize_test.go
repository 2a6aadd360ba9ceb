package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

func testParams(t testing.TB) []*Param {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	return []*Param{
		NewParam("layer.w", 3, 4, rng),
		NewParam("layer.b", 1, 4, rng),
	}
}

// encodeWeights writes an lhmm-weights/v2 file from the layout in
// serialize.go's format comment, sharing no code with SaveParams, so it
// checks the writer and lets a test build files the writer refuses to.
// count is the declared entry count (normally len(entries)), and each
// entry's W is written as is, whatever its R and C claim.
func encodeWeights(count uint32, entries ...paramEntry) []byte {
	b := []byte("LHMMWGTS")
	b = binary.LittleEndian.AppendUint16(b, 2)
	b = binary.LittleEndian.AppendUint32(b, count)
	for _, e := range entries {
		b = append(append(b, e.Name...), 0)
		b = binary.LittleEndian.AppendUint32(b, uint32(e.R))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.C))
		for _, w := range e.W {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
		}
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

func entriesOf(params []*Param) []paramEntry {
	out := make([]paramEntry, len(params))
	for i, p := range params {
		out[i] = paramEntry{Name: p.Name, R: p.W.R, C: p.W.C, W: p.W.W}
	}
	return out
}

func saved(t testing.TB, params []*Param) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveParams(&buf, params); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := testParams(t)
	src[0].W.W[5] = math.Copysign(0, -1) // raw bits: −0 survives
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := testParams(t)
	for _, p := range dst {
		p.W.Zero()
	}
	if err := LoadParams(&buf, dst); err != nil {
		t.Fatal(err)
	}
	for i, p := range dst {
		for j := range p.W.W {
			if math.Float64bits(p.W.W[j]) != math.Float64bits(src[i].W.W[j]) {
				t.Fatalf("param %q weight %d: %v != %v", p.Name, j, p.W.W[j], src[i].W.W[j])
			}
		}
	}
}

// TestWeightsWireLayout pins SaveParams to the documented layout: its
// bytes equal the independent encoder's, and the entry section is
// exactly what WriteParamEntries (and so core.Model.WeightsHash) sees.
func TestWeightsWireLayout(t *testing.T) {
	params := testParams(t)
	got := saved(t, params)
	if want := encodeWeights(2, entriesOf(params)...); !bytes.Equal(got, want) {
		t.Fatalf("SaveParams wrote %d bytes, the documented layout is %d bytes", len(got), len(want))
	}
	var entries bytes.Buffer
	if err := WriteParamEntries(&entries, params); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[weightsHdrLen:len(got)-4], entries.Bytes()) {
		t.Fatal("the file's entry section differs from WriteParamEntries")
	}
	if n := len(got); n != weightsHdrLen+2*(len("layer.w")+1+8)+8*(12+4)+4 {
		t.Fatalf("file is %d bytes", n)
	}
}

func TestCheckEntryRejectsNaNInf(t *testing.T) {
	// A raw float64 carries NaN and ±Inf like any other bits, so the
	// validation layer, not the encoding, keeps them out of a model.
	base := paramEntry{Name: "w", R: 2, C: 2, W: []float64{1, 2, 3, 4}}
	if err := checkEntry(base); err != nil {
		t.Fatalf("clean entry rejected: %v", err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		e := base
		e.W = append([]float64(nil), base.W...)
		e.W[2] = bad
		if err := checkEntry(e); err == nil {
			t.Errorf("entry with weight %v accepted", bad)
		}
	}
}

// TestLoadRejectsCorruptNumericSpellings: a file whose CRC is intact
// but whose weights are NaN or ±Inf — written by another tool, or by a
// model gone bad — fails at load, and SaveParams refuses to write it.
func TestLoadRejectsCorruptNumericSpellings(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		params := testParams(t)
		params[0].W.W[11] = bad
		if err := LoadParams(bytes.NewReader(encodeWeights(2, entriesOf(params)...)), testParams(t)); err == nil {
			t.Errorf("file with weight %v accepted", bad)
		}
		if err := SaveParams(&bytes.Buffer{}, params); err == nil {
			t.Errorf("SaveParams wrote weight %v", bad)
		}
	}
}

// TestLoadRefusesJSONWeights: the JSON weights of builds before the
// binary format are refused with an error that names the format and
// says to retrain, and so are lhmm-weights/v1 files (an encoder, not
// frozen rows) and versions this build does not know.
func TestLoadRefusesJSONWeights(t *testing.T) {
	old := `{"params":[{"name":"layer.w","r":3,"c":4,"w":[1,2,3,4,5,6,7,8,9,10,11,12]},{"name":"layer.b","r":1,"c":4,"w":[0,0,0,0]}]}`
	err := LoadParams(strings.NewReader(old), testParams(t))
	if err == nil || !strings.Contains(err.Error(), "lhmm-weights/v2") || !strings.Contains(err.Error(), "retrain") {
		t.Fatalf("JSON weights: err %v, want one naming lhmm-weights/v2 and saying to retrain", err)
	}
	for _, v := range []uint16{1, 3} {
		f := saved(t, testParams(t))
		binary.LittleEndian.PutUint16(f[8:], v)
		err := LoadParams(bytes.NewReader(f), testParams(t))
		if want := fmt.Sprintf("version %d, this build reads version 2", v); err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "retrain") {
			t.Fatalf("version %d file: err %v, want one containing %q and saying to retrain", v, err, want)
		}
	}
}

// TestApplyRefusesOtherLayouts: Apply takes a file that lists exactly
// its parameters in their order, and refuses a missing, an extra or a
// reordered entry by name, writing no destination weight.
func TestApplyRefusesOtherLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	extra := NewParam("extra", 2, 2, rng)
	ps := testParams(t)
	for name, c := range map[string]struct {
		file []*Param
		want string
	}{
		"missing":   {ps[:1], `"layer.b" not in file`},
		"extra":     {append(append([]*Param(nil), ps...), extra), `file has tensor "extra"`},
		"reordered": {[]*Param{ps[1], ps[0]}, `"layer.w" is not tensor 0 of the file (entries must be in save order)`},
	} {
		dst := testParams(t)
		for _, p := range dst {
			p.W.Zero()
		}
		err := LoadParams(bytes.NewReader(saved(t, c.file)), dst)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one containing %q", name, err, c.want)
		}
		for _, p := range dst {
			if p.W.MaxAbs() != 0 {
				t.Errorf("%s: the refused load wrote %q", name, p.Name)
			}
		}
	}
}

// TestParamFileViews: Section is the entry section WriteParamEntries
// writes, Params lists the file's tensors in order over its decoded
// weights, and Apply hands a weightless destination those same weights.
func TestParamFileViews(t *testing.T) {
	src := testParams(t)
	pf, err := ReadParams(bytes.NewReader(saved(t, src)))
	if err != nil {
		t.Fatal(err)
	}
	var entries bytes.Buffer
	if err := WriteParamEntries(&entries, src); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pf.Section(), entries.Bytes()) {
		t.Fatal("Section differs from WriteParamEntries")
	}
	ps := pf.Params()
	if len(ps) != len(src) {
		t.Fatalf("Params lists %d tensors, the file has %d", len(ps), len(src))
	}
	for i, p := range ps {
		if p.Name != src[i].Name || p.W.R != src[i].W.R || p.W.C != src[i].W.C || &p.W.W[0] != &pf.entries[i].W[0] {
			t.Fatalf("Params[%d] is %q %d×%d, not a view of the file's %q", i, p.Name, p.W.R, p.W.C, src[i].Name)
		}
	}
	dst := testParams(t)
	dst[0].W = &Mat{R: 3, C: 4}
	if err := pf.Apply(dst); err != nil {
		t.Fatal(err)
	}
	if &dst[0].W.W[0] != &pf.entries[0].W[0] {
		t.Fatal("a weightless destination got a copy, not the file's weights")
	}
	if !slices.Equal(dst[1].W.W, src[1].W.W) {
		t.Fatal("Apply did not copy the second tensor")
	}
}

// TestLoadRejectsTruncatedFile cuts a small file at every byte offset:
// every prefix fails with an error, none panics or loads.
func TestLoadRejectsTruncatedFile(t *testing.T) {
	full := saved(t, testParams(t))
	for cut := 0; cut < len(full); cut++ {
		if err := LoadParams(bytes.NewReader(full[:cut]), testParams(t)); err == nil {
			t.Fatalf("truncated file (%d of %d bytes) accepted", cut, len(full))
		}
	}
}

// TestLoadRejectsTrailingBytes: bytes after the CRC footer mean the
// file is not what was written. (The JSON reader stopped after one
// value and loaded such a file.)
func TestLoadRejectsTrailingBytes(t *testing.T) {
	full := saved(t, testParams(t))
	for _, tail := range []string{"garbage{{{", "\x00", `{"params":[]} garbage{{{`} {
		f := append(append([]byte(nil), full...), tail...)
		if err := LoadParams(bytes.NewReader(f), testParams(t)); err == nil {
			t.Errorf("file followed by %q accepted", tail)
		}
	}
}

// TestLoadRejectsDuplicateName: two tensors under one name cannot both
// be applied; the file is refused, not silently resolved to the last
// (as the JSON reader did), and SaveParams does not write one.
func TestLoadRejectsDuplicateName(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dup := []*Param{NewParam("layer.w", 3, 4, rng), NewParam("layer.w", 3, 4, rng), NewParam("layer.b", 1, 4, rng)}
	var buf bytes.Buffer
	if err := SaveParams(&buf, dup); err == nil {
		if err := LoadParams(&buf, testParams(t)); err == nil {
			t.Fatal("a file with a duplicate tensor name was written and loaded")
		}
	}
	err := LoadParams(bytes.NewReader(encodeWeights(3, entriesOf(dup)...)), testParams(t))
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate tensor name: err %v", err)
	}
}

// TestLoadRejectsFlippedBit: one flipped payload bit leaves a well-formed
// file of finite weights, which only the CRC catches.
func TestLoadRejectsFlippedBit(t *testing.T) {
	f := saved(t, testParams(t))
	f[weightsHdrLen+len("layer.w")+1+8] ^= 1 // lowest mantissa bit of the first weight
	err := LoadParams(bytes.NewReader(f), testParams(t))
	if err == nil || !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("flipped payload bit: err %v, want a CRC mismatch", err)
	}
}

// TestLoadRejectsHugeDeclaredShape: a 64-byte file declaring a
// 65,535 × 65,535 tensor (32 GiB) is refused without allocating for
// it — memory follows the bytes read, not the shape declared.
func TestLoadRejectsHugeDeclaredShape(t *testing.T) {
	f := encodeWeights(1, paramEntry{Name: "w", R: 65535, C: 65535, W: make([]float64, 4)})
	f = append(f, make([]byte, 64-len(f))...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := ReadParams(bytes.NewReader(f))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("huge declared shape accepted")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("rejecting a %d-byte file allocated %d bytes", len(f), alloc)
	}
}

// TestLoadRejectsMalformedEntries covers the structural checks one by
// one, each in a file whose CRC is valid.
func TestLoadRejectsMalformedEntries(t *testing.T) {
	w := paramEntry{Name: "layer.w", R: 3, C: 4, W: make([]float64, 12)}
	b := paramEntry{Name: "layer.b", R: 1, C: 4, W: make([]float64, 4)}
	for name, f := range map[string][]byte{
		"empty name":    encodeWeights(2, w, paramEntry{R: 1, C: 4, W: make([]float64, 4)}),
		"long name":     encodeWeights(2, w, paramEntry{Name: strings.Repeat("x", 257), R: 1, C: 4, W: make([]float64, 4)}),
		"zero rows":     encodeWeights(3, w, b, paramEntry{Name: "z", R: 0, C: 4}),
		"count too big": encodeWeights(3, w, b),
		"count too low": encodeWeights(1, w, b),
	} {
		if _, err := ReadParams(bytes.NewReader(f)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	long := paramEntry{Name: strings.Repeat("x", 256), R: 1, C: 1, W: []float64{1}}
	if _, err := ReadParams(bytes.NewReader(encodeWeights(1, long))); err != nil {
		t.Errorf("256-byte name refused: %v", err)
	}
}

func TestLoadRejectsShortTensor(t *testing.T) {
	// Declared 3×4 but only 5 weights before the next tensor: a
	// truncated tensor must not partially overwrite the destination.
	short := encodeWeights(2,
		paramEntry{Name: "layer.w", R: 3, C: 4, W: []float64{1, 2, 3, 4, 5}},
		paramEntry{Name: "layer.b", R: 1, C: 4, W: []float64{0, 0, 0, 0}})
	dst := testParams(t)
	before := append([]float64(nil), dst[0].W.W...)
	if err := LoadParams(bytes.NewReader(short), dst); err == nil {
		t.Fatal("short tensor accepted")
	}
	for i, w := range dst[0].W.W {
		if w != before[i] {
			t.Fatal("failed load modified destination weights")
		}
	}
}

func TestLoadRejectsShapeMismatchWithoutPartialWrite(t *testing.T) {
	src := testParams(t)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	dst := []*Param{
		NewParam("layer.w", 3, 4, rng), // matches
		NewParam("layer.b", 2, 4, rng), // shape mismatch
	}
	before := append([]float64(nil), dst[0].W.W...)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), dst); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	for i, w := range dst[0].W.W {
		if w != before[i] {
			t.Fatal("failed load modified matching parameter before validation finished")
		}
	}
}

func TestLoadFaultInjection(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	faultinject.DisarmAll()
	src := testParams(t)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src); err != nil {
		t.Fatal(err)
	}
	if err := faultinject.Arm("nn.load.corrupt"); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(bytes.NewReader(buf.Bytes()), testParams(t)); err == nil {
		t.Error("armed nn.load.corrupt did not fail the load")
	}
	faultinject.DisarmAll()
	if err := LoadParams(bytes.NewReader(buf.Bytes()), testParams(t)); err != nil {
		t.Errorf("disarmed load failed: %v", err)
	}
}

// FuzzReadParams: no input panics the decoder, and any input it accepts
// is a file SaveParams writes byte for byte from the decoded tensors.
func FuzzReadParams(f *testing.F) {
	valid := saved(f, testParams(f))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add(encodeWeights(1, paramEntry{Name: "w", R: 65535, C: 65535}))
	f.Add([]byte(`{"params":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, err := ReadParams(bytes.NewReader(data))
		if err != nil {
			return
		}
		params := make([]*Param, len(pf.entries))
		for i, e := range pf.entries {
			params[i] = &Param{Name: e.Name, W: FromSlice(e.R, e.C, e.W)}
		}
		var buf bytes.Buffer
		if err := SaveParams(&buf, params); err != nil {
			t.Fatalf("accepted file does not re-encode: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Fatalf("accepted %d bytes re-encode to %d different ones", len(data), buf.Len())
		}
	})
}

// BenchmarkReadParams decodes a 10 MB weights file, the size of the
// benchmark's trained model.
func BenchmarkReadParams(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	data := saved(b, []*Param{NewParam("enc.init", 9000, 128, rng), NewParam("w", 128, 128, rng)})
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadParams(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
