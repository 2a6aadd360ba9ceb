package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"repro/internal/faultinject"
	"repro/internal/wire"
)

// fpLoadCorrupt simulates a corrupt model file at the deserialization
// boundary (chaos tests; no-op unless armed via faultinject).
var fpLoadCorrupt = faultinject.New("nn.load.corrupt")

// lhmm-weights/v2 — the model weights file written by SaveParams:
//
//	magic   "LHMMWGTS" (8 bytes)
//	version u16 (2)
//	count   u32
//	entries count × (name bytes · 0x00 · R u32 · C u32 · R·C × f64)
//	footer  CRC-32C (Castagnoli) over everything before it, u32
//
// All integers and float bit patterns are little-endian. A name is 1 to
// 256 bytes with no NUL, unique in the file; R and C are at least 1.
// Floats are raw IEEE-754 bits, so weights round-trip exactly. A file
// lists exactly the tensors its reader applies, in the reader's order:
// Apply refuses a missing, an extra or a reordered entry, so one set of
// weights has one entry section, and its SHA-256 is
// core.Model.WeightsHash (WriteParamEntries writes it, Section returns
// it as read).
//
// Version 2 (core's model file) holds the frozen node embeddings in
// place of the encoder that computes them; version 1 held the encoder.
const (
	weightsMagic = "LHMMWGTS"
	// WeightsVersion is the lhmm-weights wire version SaveParams writes
	// and the only one ReadParams accepts. Bump it when the meaning of a
	// stored tensor changes, so older files are refused, not mis-read.
	WeightsVersion = 2
	weightsMaxName = 256
	weightsHdrLen  = len(weightsMagic) + 2 + 4
)

var weightsCRCTable = crc32.MakeTable(crc32.Castagnoli)

// paramEntry is one decoded tensor.
type paramEntry struct {
	Name string
	R, C int
	W    []float64
}

// SaveParams writes parameters (weights only; optimizer state is not
// persisted) as an lhmm-weights/v2 file. It refuses what ReadParams
// refuses — a bad or repeated name, a non-finite weight — so every file
// it writes loads.
func SaveParams(w io.Writer, params []*Param) error {
	seen := make(map[string]bool, len(params))
	for _, p := range params {
		if err := checkEntry(paramEntry{Name: p.Name, R: p.W.R, C: p.W.C, W: p.W.W}); err != nil {
			return fmt.Errorf("nn: save params: %w", err)
		}
		if seen[p.Name] {
			return fmt.Errorf("nn: save params: duplicate tensor %q", p.Name)
		}
		seen[p.Name] = true
	}
	crc := crc32.New(weightsCRCTable)
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 64<<10)
	hdr := append([]byte(weightsMagic), 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(hdr[8:], WeightsVersion)
	binary.LittleEndian.PutUint32(hdr[10:], uint32(len(params)))
	bw.Write(hdr) // a bufio.Writer keeps its first error for the next Write and Flush
	if err := WriteParamEntries(bw, params); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	if _, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32())); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	return nil
}

// WriteParamEntries writes the entry section of an lhmm-weights file
// for params, in order: per tensor its name and a NUL, R and C as u32,
// then R·C raw little-endian float64s. It validates nothing (SaveParams
// does), so a digest of any weights — core.Model.WeightsHash — can use
// it.
func WriteParamEntries(w io.Writer, params []*Param) error {
	const chunk = 32 << 10
	buf := make([]byte, 0, chunk+8)
	for _, p := range params {
		buf = append(buf[:0], p.Name...)
		buf = append(buf, 0)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.W.R))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.W.C))
		for _, v := range p.W.W {
			if len(buf) >= chunk {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// LoadParams restores weights written by SaveParams into the given
// parameters, matching by name: ReadParams then Apply.
func LoadParams(r io.Reader, params []*Param) error {
	f, err := ReadParams(r)
	if err != nil {
		return err
	}
	return f.Apply(params)
}

// ParamFile is a decoded, validated parameter file: every tensor has a
// unique name, a shape of at least 1×1, and only finite weights.
type ParamFile struct {
	entries []paramEntry // in file order
	byName  map[string]int
	section []byte // the entry section as read
}

// ReadParams decodes an lhmm-weights/v2 file and validates it before
// any destination parameter is touched. Rejected with a descriptive
// error: a file without the magic (the JSON weights of builds before
// the binary format included — those must be retrained), another
// version, a truncated file, bytes after the CRC footer, a CRC
// mismatch, a bad or repeated tensor name, an empty shape, and NaN or
// ±Inf weights. A model that loads is a model whose every weight is
// finite, so corruption surfaces here instead of as NaN scores (or
// panics) mid-match. Memory grows with the bytes read, never with a
// shape the file merely declares.
func ReadParams(r io.Reader) (*ParamFile, error) {
	// A reader that knows its length (bytes.Reader, strings.Reader)
	// holds those bytes, so sizing the buffer by it keeps allocation
	// following the input and copies an in-memory file once.
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("nn: load params: %w", err)
	}
	f, err := decodeParams(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("nn: load params: %w", err)
	}
	return f, nil
}

func decodeParams(data []byte) (*ParamFile, error) {
	r := wire.NewReader(data)
	if string(r.Bytes(len(weightsMagic))) != weightsMagic {
		return nil, fmt.Errorf("not an lhmm-weights/v%d file (no %s magic); weights saved as JSON by older builds cannot be read: retrain the model", WeightsVersion, weightsMagic)
	}
	v, count := r.U16(), r.U32()
	if r.Len() < 4 {
		return nil, fmt.Errorf("truncated file: %d bytes", len(data))
	}
	if v != WeightsVersion {
		return nil, fmt.Errorf("lhmm-weights version %d, this build reads version %d: retrain the model", v, WeightsVersion)
	}
	f := &ParamFile{byName: make(map[string]int)}
	start := len(data) - r.Len()
	for n := uint32(0); n < count; n++ {
		e := decodeEntry(r)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("tensor %d: %w", n, err)
		}
		if err := checkEntry(e); err != nil {
			return nil, err
		}
		if _, dup := f.byName[e.Name]; dup {
			return nil, fmt.Errorf("duplicate tensor %q (corrupt file)", e.Name)
		}
		f.byName[e.Name] = len(f.entries)
		f.entries = append(f.entries, e)
	}
	f.section = data[start : len(data)-r.Len()]
	switch {
	case r.Len() < 4:
		return nil, fmt.Errorf("truncated file: no CRC footer")
	case r.Len() > 4:
		return nil, fmt.Errorf("%d bytes after the CRC footer (corrupt file)", r.Len()-4)
	}
	if _, err := wire.Open(data, weightsCRCTable); err != nil {
		return nil, fmt.Errorf("%w (corrupt file)", err)
	}
	return f, nil
}

// decodeEntry reads the tensor at r's offset: a NUL-terminated name, R
// and C, then R·C weights, allocated only once r is known to hold them.
func decodeEntry(r *wire.Reader) paramEntry {
	var name []byte
	for c := r.U8(); c != 0; c = r.U8() {
		if len(name) == weightsMaxName {
			r.Failf("name longer than %d bytes (corrupt file)", weightsMaxName)
			break
		}
		name = append(name, c)
	}
	rows, cols := r.U32(), r.U32()
	e := paramEntry{Name: string(name), R: int(rows), C: int(cols)}
	if r.Fits(uint64(rows)*uint64(cols), 8) {
		e.W = r.F64s(e.R * e.C)
	}
	return e
}

// Shape returns the declared shape of the named tensor, so a caller
// can size the destination model from the file.
func (f *ParamFile) Shape(name string) (r, c int, ok bool) {
	i, ok := f.byName[name]
	if !ok {
		return 0, 0, false
	}
	return f.entries[i].R, f.entries[i].C, true
}

// Section returns the file's entry section as read: the bytes
// WriteParamEntries writes for the file's tensors in file order.
func (f *ParamFile) Section() []byte { return f.section }

// Params returns the file's tensors in file order, as parameters over
// the decoded weights (no copy).
func (f *ParamFile) Params() []*Param {
	ps := make([]*Param, len(f.entries))
	for i, e := range f.entries {
		ps[i] = &Param{Name: e.Name, W: &Mat{R: e.R, C: e.C, W: e.W}}
	}
	return ps
}

// Apply copies the file's weights into params. The file must hold
// exactly params, in params' order, each with its shape. A parameter
// whose matrix has a shape but no weights (W.W nil) takes the file's
// decoded weights instead of a copy.
func (f *ParamFile) Apply(params []*Param) error {
	if fpLoadCorrupt.Fail() {
		return fmt.Errorf("nn: load params: fault injected: %s", fpLoadCorrupt.Name())
	}
	// Validate every destination before writing any, so a bad file
	// cannot leave a model half-loaded.
	want := make(map[string]bool, len(params))
	for _, p := range params {
		want[p.Name] = true
	}
	for _, e := range f.entries {
		if !want[e.Name] {
			return fmt.Errorf("nn: load params: file has tensor %q, which is not a parameter here", e.Name)
		}
	}
	for i, p := range params {
		if _, ok := f.byName[p.Name]; !ok {
			return fmt.Errorf("nn: load params: %q not in file", p.Name)
		}
		if i >= len(f.entries) || f.entries[i].Name != p.Name {
			return fmt.Errorf("nn: load params: %q is not tensor %d of the file (entries must be in save order)", p.Name, i)
		}
		if e := &f.entries[i]; e.R != p.W.R || e.C != p.W.C {
			return fmt.Errorf("nn: load params: %q shape %d×%d, file has %d×%d",
				p.Name, p.W.R, p.W.C, e.R, e.C)
		}
	}
	for i, p := range params {
		if p.W.W == nil {
			p.W.W = f.entries[i].W
		} else {
			copy(p.W.W, f.entries[i].W)
		}
	}
	return nil
}

// checkEntry validates one tensor, read or about to be written: a name
// of 1 to 256 bytes without NUL (the wire terminator), a shape of at
// least 1×1 whose element count the weights match, and only finite
// weights. A raw float64 carries NaN and ±Inf as readily as any other
// bits, so the invariant "a loaded model has only finite weights" is
// enforced here, not left to the encoding.
func checkEntry(e paramEntry) error {
	switch {
	case e.Name == "" || len(e.Name) > weightsMaxName:
		return fmt.Errorf("tensor name %q is not 1 to %d bytes", e.Name, weightsMaxName)
	case strings.IndexByte(e.Name, 0) >= 0:
		return fmt.Errorf("tensor name %q contains a NUL byte", e.Name)
	case e.R < 1 || e.C < 1:
		return fmt.Errorf("%q has empty shape %d×%d", e.Name, e.R, e.C)
	case len(e.W) != e.R*e.C:
		return fmt.Errorf("%q has %d weights for shape %d×%d", e.Name, len(e.W), e.R, e.C)
	}
	for i, w := range e.W {
		if w-w != 0 {
			return fmt.Errorf("%q weight %d is %v", e.Name, i, w)
		}
	}
	return nil
}
