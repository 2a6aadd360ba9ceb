package roadnet

// Versioned binary network format ("LNET"). The JSON format in io.go
// stays the interchange format; this one exists so a ~100k-segment
// city loads in milliseconds: flat little-endian slabs that decode
// into the Network's CSR representation with no per-segment parsing.
//
// Layout (all little-endian, CRC-32/IEEE of everything before it at
// the tail):
//
//	magic "LNET" | u32 version=1 | u32 flags (none defined; must be 0)
//	u64 nodes | u64 segments | u64 viaPoints
//	nodes    × (f64 x, f64 y)
//	segments × (u32 from, u32 to, u8 class, f64 speed)
//	(segments+1) × u32 cumulative via-point offsets
//	viaPoints × (f64 x, f64 y)   — interior shape points only
//	u32 crc
//
// Segment lengths are recomputed from the decoded shapes with the same
// left-to-right fold Builder uses, so a loaded network is bit-identical
// to one built from the same inputs.
//
// Flags bit 0 once marked a Contraction-Hierarchies section after the
// via points. Routing no longer uses one, and a file carrying it is
// refused as having an unknown flag; rebuild it with `lhmm net build`.

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/geo"
	"repro/internal/wire"
)

const (
	lnetMagic     = "LNET"
	lnetVersion   = 1
	lnetKnownFlag = 0
)

// maxExtent bounds a decoded network's width and height in meters (a
// quarter of the Earth's circumference): the spatial index is sized by
// the extent, and no projected road map is wider.
const maxExtent = 1e7

// WriteBinary serializes the network in the LNET binary format.
func WriteBinary(w io.Writer, n *Network) error {
	via := 0
	for i := 0; i < n.NumSegments(); i++ {
		via += len(n.Segment(SegmentID(i)).Shape) - 2
	}
	est := 64 + n.NumNodes()*16 + n.NumSegments()*21 + via*16
	bw := wire.Writer{Buf: make([]byte, 0, est)}

	bw.Bytes([]byte(lnetMagic))
	bw.U32(lnetVersion)
	bw.U32(0) // flags
	bw.U64(uint64(n.NumNodes()))
	bw.U64(uint64(n.NumSegments()))
	bw.U64(uint64(via))

	for i := 0; i < n.NumNodes(); i++ {
		p := n.Node(NodeID(i)).P
		bw.F64(p.X)
		bw.F64(p.Y)
	}
	for i := 0; i < n.NumSegments(); i++ {
		s := n.Segment(SegmentID(i))
		bw.U32(uint32(s.From))
		bw.U32(uint32(s.To))
		bw.U8(uint8(s.Class))
		bw.F64(s.Speed)
	}
	off := uint32(0)
	bw.U32(off)
	for i := 0; i < n.NumSegments(); i++ {
		off += uint32(len(n.Segment(SegmentID(i)).Shape) - 2)
		bw.U32(off)
	}
	for i := 0; i < n.NumSegments(); i++ {
		shape := n.Segment(SegmentID(i)).Shape
		for _, p := range shape[1 : len(shape)-1] {
			bw.F64(p.X)
			bw.F64(p.Y)
		}
	}
	if _, err := w.Write(bw.Seal(crc32.IEEETable)); err != nil {
		return fmt.Errorf("roadnet: write binary: %w", err)
	}
	return nil
}

// ReadBinary deserializes a network written by WriteBinary. Any other
// input is an error, not a panic, and no count its header declares is
// allocated before the file is checked to hold that many records; an
// accepted input re-encodes to the same bytes (FuzzReadBinary).
func ReadBinary(rd io.Reader) (*Network, error) {
	buf, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("roadnet: read binary: %w", err)
	}
	if len(buf) < len(lnetMagic)+12+4 || string(buf[:4]) != lnetMagic {
		return nil, fmt.Errorf("roadnet: not an LNET binary network")
	}
	payload, err := wire.Open(buf, crc32.IEEETable)
	if err != nil {
		return nil, fmt.Errorf("roadnet: binary network: %w", err)
	}
	r := wire.NewReader(payload)
	r.Bytes(len(lnetMagic))
	if v := r.U32(); v != lnetVersion {
		return nil, fmt.Errorf("roadnet: unsupported binary network version %d", v)
	}
	flags := r.U32()
	if flags&^uint32(lnetKnownFlag) != 0 {
		return nil, fmt.Errorf("roadnet: unknown binary network flags %#x", flags)
	}
	nNodes, nSegs, nVia := r.U64(), r.U64(), r.U64()
	if nNodes == 0 || nSegs == 0 {
		return nil, fmt.Errorf("roadnet: implausible binary network header (%d nodes, %d segments, %d via points)", nNodes, nSegs, nVia)
	}

	if !r.Fits(nNodes, 16) {
		return nil, readErr(r)
	}
	nodes := make([]Node, nNodes)
	bounds := geo.Rect{Min: geo.Pt(math.Inf(1), math.Inf(1)), Max: geo.Pt(math.Inf(-1), math.Inf(-1))}
	for i := range nodes {
		nodes[i] = Node{ID: NodeID(i), P: geo.Pt(r.F64(), r.F64())}
		bounds = bounds.Extend(nodes[i].P)
	}
	if !r.Fits(nSegs, 17) {
		return nil, readErr(r)
	}
	segments := make([]Segment, nSegs)
	for i := range segments {
		from, to := NodeID(r.U32()), NodeID(r.U32())
		class := Class(r.U8())
		speed := r.F64()
		if int(from) >= len(nodes) || int(to) >= len(nodes) {
			return nil, fmt.Errorf("roadnet: segment %d references node out of range", i)
		}
		if class > Highway {
			return nil, fmt.Errorf("roadnet: segment %d has unknown class %d", i, class)
		}
		segments[i] = Segment{ID: SegmentID(i), From: from, To: to, Class: class, Speed: speed}
	}
	if !r.Fits(nSegs+1, 4) {
		return nil, readErr(r)
	}
	// The offsets run from 0 to nVia and never decrease, so every
	// segment's slice of the via points below is in range.
	viaOff := make([]uint32, nSegs+1)
	for i := range viaOff {
		viaOff[i] = r.U32()
		if i > 0 && viaOff[i] < viaOff[i-1] {
			return nil, fmt.Errorf("roadnet: segment %d has decreasing via offsets", i-1)
		}
	}
	if viaOff[0] != 0 || uint64(viaOff[nSegs]) != nVia {
		return nil, fmt.Errorf("roadnet: via offsets run %d..%d, header says 0..%d", viaOff[0], viaOff[nSegs], nVia)
	}
	if !r.Fits(nVia, 16) {
		return nil, readErr(r)
	}
	viaPts := make([]geo.Point, nVia)
	for i := range viaPts {
		viaPts[i] = geo.Pt(r.F64(), r.F64())
		bounds = bounds.Extend(viaPts[i])
	}
	if !(bounds.Width() <= maxExtent && bounds.Height() <= maxExtent) {
		return nil, fmt.Errorf("roadnet: binary network spans %v (non-finite, or wider than %g m)", bounds, float64(maxExtent))
	}
	for i := range segments {
		s := &segments[i]
		a, b := viaOff[i], viaOff[i+1]
		shape := make(geo.Polyline, 0, int(b-a)+2)
		shape = append(shape, nodes[s.From].P)
		shape = append(shape, viaPts[a:b]...)
		shape = append(shape, nodes[s.To].P)
		s.Shape = shape
		s.Length = shape.Length()
	}

	if r.Len() != 0 {
		return nil, fmt.Errorf("roadnet: %d trailing bytes in binary network", r.Len())
	}
	return assemble(nodes, segments), nil
}

// readErr reports the reader's first failure as a roadnet error.
func readErr(r *wire.Reader) error {
	return fmt.Errorf("roadnet: binary network: %w", r.Err())
}
