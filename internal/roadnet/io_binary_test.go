package roadnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/wire"
)

// buildShaped builds a small network exercising every serialized
// field: interior via points, mixed classes, an overridden speed.
func buildShaped(t testing.TB) *Network {
	t.Helper()
	var b Builder
	n0 := b.AddNode(geo.Pt(0, 0))
	n1 := b.AddNode(geo.Pt(300, 0))
	n2 := b.AddNode(geo.Pt(300, 300))
	if _, _, err := b.AddTwoWay(n0, n1, Arterial, geo.Pt(100, 25), geo.Pt(200, -25)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddSegment(n1, n2, Highway, geo.Pt(320, 150)); err != nil {
		t.Fatal(err)
	}
	sid, err := b.AddSegment(n2, n0, Local)
	if err != nil {
		t.Fatal(err)
	}
	b.segments[sid].Speed = 3.5
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func sameNetwork(t *testing.T, a, b *Network) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumSegments() != b.NumSegments() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d segments",
			a.NumNodes(), b.NumNodes(), a.NumSegments(), b.NumSegments())
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Node(NodeID(i)).P != b.Node(NodeID(i)).P {
			t.Fatalf("node %d position mismatch", i)
		}
	}
	for i := 0; i < a.NumSegments(); i++ {
		sa, sb := a.Segment(SegmentID(i)), b.Segment(SegmentID(i))
		if sa.From != sb.From || sa.To != sb.To || sa.Class != sb.Class ||
			sa.Speed != sb.Speed || sa.Length != sb.Length {
			t.Fatalf("segment %d fields mismatch: %+v vs %+v", i, sa, sb)
		}
		if len(sa.Shape) != len(sb.Shape) {
			t.Fatalf("segment %d shape length mismatch", i)
		}
		for j := range sa.Shape {
			if sa.Shape[j] != sb.Shape[j] {
				t.Fatalf("segment %d shape point %d mismatch", i, j)
			}
		}
	}
	for v := 0; v < a.NumNodes(); v++ {
		ao, bo := a.Out(NodeID(v)), b.Out(NodeID(v))
		if len(ao) != len(bo) {
			t.Fatalf("node %d out-degree mismatch", v)
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("node %d adjacency mismatch: %v vs %v", v, ao, bo)
			}
		}
	}
	if a.Bounds() != b.Bounds() {
		t.Fatalf("bounds mismatch: %v vs %v", a.Bounds(), b.Bounds())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for name, n := range map[string]*Network{
		"shaped":   buildShaped(t),
		"lattice":  buildGrid(t, 5, 4),
		"jittered": buildJittered(t, 7, 7, 0.2, 21),
	} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, n); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		n2, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameNetwork(t, n, n2)
	}
}

func TestBinaryMatchesJSONRoundTrip(t *testing.T) {
	n := buildShaped(t)
	var jbuf, bbuf bytes.Buffer
	if err := Write(&jbuf, n); err != nil {
		t.Fatal(err)
	}
	nj, err := Read(&jbuf)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bbuf, n); err != nil {
		t.Fatal(err)
	}
	nb, err := ReadBinary(&bbuf)
	if err != nil {
		t.Fatal(err)
	}
	sameNetwork(t, nj, nb)
}

// TestBinaryWireStable pins WriteBinary's bytes for buildShaped: the
// file's length equals the sum of the field list in io_binary.go's
// layout comment, and its SHA-256 equals the digest recorded when the
// test was written.
func TestBinaryWireStable(t *testing.T) {
	n := buildShaped(t)
	via := 0
	for i := 0; i < n.NumSegments(); i++ {
		via += len(n.Segment(SegmentID(i)).Shape) - 2
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	want := 4 + 4 + 4                         // magic, version, flags
	want += 8 + 8 + 8                         // nodes, segments, via points
	want += n.NumNodes() * (8 + 8)            // node x, y
	want += n.NumSegments() * (4 + 4 + 1 + 8) // from, to, class, speed
	want += (n.NumSegments() + 1) * 4         // via offsets
	want += via * (8 + 8)                     // via x, y
	want += 4                                 // CRC
	if len(data) != want {
		t.Errorf("file is %d bytes, the format's field list adds up to %d", len(data), want)
	}
	if runtime.GOARCH != "amd64" {
		return // digest recorded on amd64
	}
	const golden = "9024c88d75035b75041d656248d9fb7a897ed9d437f05a9a9757dbd9cf80de21"
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("file sha-256 %s, want %s (%d bytes)", got, golden, len(data))
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	n := buildGrid(t, 4, 4)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, n); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := ReadBinary(strings.NewReader("not a network")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadBinary(bytes.NewReader(good[:len(good)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	for _, off := range []int{4, 20, len(good) / 2, len(good) - 8} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
			t.Errorf("bit flip at offset %d accepted", off)
		}
	}
	extra := append(append([]byte(nil), good...), 0, 0, 0, 0)
	if _, err := ReadBinary(bytes.NewReader(extra)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Node 0's x, with a valid CRC: a NaN would size the spatial index
	// from NaN bounds, a far-off node would size it by a continent.
	for _, x := range []float64{math.NaN(), 1e12} {
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint64(bad[36:], math.Float64bits(x))
		if _, err := ReadBinary(bytes.NewReader(refitCRC(bad))); err == nil {
			t.Errorf("node at x = %v accepted", x)
		}
	}
	// Flags bit 0, with a valid CRC: the Contraction-Hierarchies section
	// `lhmm net build` once appended by default. Routing reads no such
	// section, so the file is refused, not half-read.
	legacy := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(legacy[8:], 1)
	if _, err := ReadBinary(bytes.NewReader(refitCRC(legacy))); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Errorf("a file with flags bit 0 set: err = %v, want one naming the flags", err)
	}
}

// lnetFile frames a hand-written LNET body (everything after the flags)
// with the magic, version, flags and a valid CRC-32 footer.
func lnetFile(flags uint32, body func(w *wire.Writer)) []byte {
	w := wire.Writer{Buf: []byte(lnetMagic)}
	w.U32(lnetVersion)
	w.U32(flags)
	body(&w)
	return w.Seal(crc32.IEEETable)
}

// refitCRC rewrites the CRC-32 footer of b so it passes the checksum
// gate (no-op on inputs too short to carry one).
func refitCRC(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	out := append([]byte(nil), b...)
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out
}

// TestReadBinaryRejectsViaOffsetsOutOfRange: a file whose via offsets
// rise past the via points and fall back to the header's count passes
// the end-offset check; it must be refused before a shape is sliced out
// of them.
func TestReadBinaryRejectsViaOffsetsOutOfRange(t *testing.T) {
	data := lnetFile(0, func(w *wire.Writer) {
		w.U64(2) // nodes
		w.U64(2) // segments
		w.U64(0) // via points
		for i := 0; i < 2; i++ {
			w.F64(float64(i) * 100)
			w.F64(0)
		}
		for i := 0; i < 2; i++ {
			w.U32(uint32(i))
			w.U32(uint32(1 - i))
			w.U8(uint8(Local))
			w.F64(10)
		}
		for _, off := range []uint32{0, 5, 0} {
			w.U32(off)
		}
	})
	if len(data) != 118 {
		t.Fatalf("fixture is %d bytes, want 118", len(data))
	}
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
		t.Fatal("via offsets [0 5 0] over 0 via points accepted")
	}
}

// TestReadBinaryBoundsAllocationByFileSize: a 40-byte file whose header
// declares 2²⁰ nodes and 2²⁰ segments holds none of them, and must be
// refused as truncated without allocating for them first.
func TestReadBinaryBoundsAllocationByFileSize(t *testing.T) {
	data := lnetFile(0, func(w *wire.Writer) {
		w.U64(1 << 20)
		w.U64(1 << 20)
		w.U64(0)
	})
	if len(data) != 40 {
		t.Fatalf("fixture is %d bytes, want 40", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("refusing a 40-byte file allocated %d bytes", got)
	}
}

// FuzzReadBinary: ReadBinary never panics, and whatever it accepts
// WriteBinary re-encodes to the same bytes. Each input is also tried
// with its CRC footer refitted, so mutations reach the body.
func FuzzReadBinary(f *testing.F) {
	for _, n := range []*Network{buildShaped(f), buildGrid(f, 3, 3)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, n); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, refitCRC(b)} {
			net, err := ReadBinary(bytes.NewReader(in))
			if err != nil {
				continue
			}
			var out bytes.Buffer
			if err := WriteBinary(&out, net); err != nil {
				t.Fatalf("re-encoding an accepted network: %v", err)
			}
			if !bytes.Equal(out.Bytes(), in) {
				t.Fatalf("accepted %d bytes re-encode to %d different ones", len(in), out.Len())
			}
		}
	})
}
