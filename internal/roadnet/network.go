// Package roadnet models the road network substrate: a directed graph
// of intersections (nodes) and road segments (edges) with geometry,
// spatial indexing for candidate retrieval, and shortest-path routing
// with a per-source cache (the paper's precomputation table, §V-A2).
package roadnet

import (
	"fmt"
	"math"

	"repro/internal/geo"
	"repro/internal/spatial"
)

// NodeID identifies an intersection or terminal point in the network.
type NodeID int

// SegmentID identifies a directed road segment.
type SegmentID int

// Class is a coarse road classification used to assign speed limits and
// to steer the synthetic generator.
type Class int

// Road classes, from smallest to largest capacity.
const (
	Local Class = iota
	Arterial
	Highway
)

// String returns the lowercase class name.
func (c Class) String() string {
	switch c {
	case Local:
		return "local"
	case Arterial:
		return "arterial"
	case Highway:
		return "highway"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// DefaultSpeed returns a typical free-flow speed for the class in m/s.
func (c Class) DefaultSpeed() float64 {
	switch c {
	case Highway:
		return 27.8 // ~100 km/h
	case Arterial:
		return 16.7 // ~60 km/h
	default:
		return 11.1 // ~40 km/h
	}
}

// Node is an intersection or terminal point.
type Node struct {
	ID NodeID
	P  geo.Point
}

// Segment is a directed road segment between two nodes. Geometry is a
// polyline whose first and last points coincide with the endpoints of
// the From and To nodes.
type Segment struct {
	ID     SegmentID
	From   NodeID
	To     NodeID
	Shape  geo.Polyline
	Length float64 // meters, cached from Shape
	Class  Class
	Speed  float64 // free-flow speed, m/s
}

// Midpoint returns the point halfway along the segment geometry.
func (s *Segment) Midpoint() geo.Point { return s.Shape.At(s.Length / 2) }

// Bearing returns the overall direction of travel (start to end).
func (s *Segment) Bearing() float64 {
	return s.Shape[0].Bearing(s.Shape[len(s.Shape)-1])
}

// PointAt returns the point a fraction frac in [0,1] along the segment.
func (s *Segment) PointAt(frac float64) geo.Point {
	return s.Shape.At(s.Length * math.Max(0, math.Min(1, frac)))
}

// Network is an immutable road network. Build one with a Builder. All
// methods are safe for concurrent use once built.
//
// Adjacency is stored CSR-style: one offsets array per direction plus a
// packed array of segment ids, so a 100k-segment city costs two int32
// arrays and two id arrays instead of 2·N small heap slices. Segment
// geometry is likewise packed into a single point slab; each Segment's
// Shape is a capacity-bounded view into it. Per-node adjacency lists
// are ascending by segment id, matching the insertion order the
// pointer-based representation produced.
type Network struct {
	nodes    []Node
	segments []Segment

	outOff  []int32     // len NumNodes+1; out ids of node v are outSegs[outOff[v]:outOff[v+1]]
	outSegs []SegmentID // packed outgoing segment ids, grouped by From node
	inOff   []int32     // len NumNodes+1; in ids of node v are inSegs[inOff[v]:inOff[v+1]]
	inSegs  []SegmentID // packed incoming segment ids, grouped by To node

	shapeSlab []geo.Point // all segment polylines, contiguous
	bearing   []float64   // Segment.Bearing() per segment id

	index  *spatial.Grid // over segment geometry
	bounds geo.Rect
}

// NumNodes returns the number of nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// NumSegments returns the number of directed segments.
func (n *Network) NumSegments() int { return len(n.segments) }

// Node returns the node with the given id. It panics on a bad id.
func (n *Network) Node(id NodeID) *Node { return &n.nodes[id] }

// Segment returns the segment with the given id. It panics on a bad id.
func (n *Network) Segment(id SegmentID) *Segment { return &n.segments[id] }

// Bearing returns Segment(id).Bearing() from a table built with the
// network, for callers that read it once per routed segment.
func (n *Network) Bearing(id SegmentID) float64 { return n.bearing[id] }

// Out returns the ids of segments leaving the node. The returned slice
// is a view into shared storage and must not be modified.
func (n *Network) Out(id NodeID) []SegmentID {
	return n.outSegs[n.outOff[id]:n.outOff[id+1]]
}

// In returns the ids of segments entering the node. The returned slice
// is a view into shared storage and must not be modified.
func (n *Network) In(id NodeID) []SegmentID {
	return n.inSegs[n.inOff[id]:n.inOff[id+1]]
}

// Next returns the ids of segments that can follow s on a path (those
// leaving s's To node). The returned slice must not be modified.
func (n *Network) Next(s SegmentID) []SegmentID {
	return n.Out(n.segments[s].To)
}

// Bounds returns the bounding rectangle of all node positions.
func (n *Network) Bounds() geo.Rect { return n.bounds }

// TotalLength returns the summed length of all segments in meters.
func (n *Network) TotalLength() float64 {
	var total float64
	for i := range n.segments {
		total += n.segments[i].Length
	}
	return total
}

// segItem adapts a segment's polyline geometry to the spatial index.
type segItem struct {
	shape geo.Polyline
	box   geo.Rect
}

func (si segItem) Bounds() geo.Rect           { return si.box }
func (si segItem) DistTo(p geo.Point) float64 { return si.shape.Dist(p) }

// SegmentsNear returns the k segments nearest to p, ascending by
// geometric distance from p to the segment polyline.
func (n *Network) SegmentsNear(p geo.Point, k int) []SegmentID {
	ids := n.index.Nearest(p, k)
	out := make([]SegmentID, len(ids))
	for i, id := range ids {
		out[i] = SegmentID(id)
	}
	return out
}

// DistTo returns the geometric distance from p to segment s.
func (n *Network) DistTo(s SegmentID, p geo.Point) float64 {
	return n.segments[s].Shape.Dist(p)
}

// Project returns the closest point on segment s to p and the fraction
// along the segment at which it occurs.
func (n *Network) Project(s SegmentID, p geo.Point) (geo.Point, float64) {
	seg := &n.segments[s]
	q, along, _, _ := seg.Shape.Project(p)
	if seg.Length == 0 {
		return q, 0
	}
	return q, along / seg.Length
}

// Builder accumulates nodes and segments and produces an immutable
// Network. The zero value is ready to use.
type Builder struct {
	nodes    []Node
	segments []Segment
}

// AddNode appends a node at p and returns its id.
func (b *Builder) AddNode(p geo.Point) NodeID {
	id := NodeID(len(b.nodes))
	b.nodes = append(b.nodes, Node{ID: id, P: p})
	return id
}

// AddSegment appends a directed segment from one node to another with
// optional intermediate shape points (excluding the endpoints, which
// are taken from the nodes). It returns the new segment's id and an
// error if either node id is out of range.
func (b *Builder) AddSegment(from, to NodeID, class Class, via ...geo.Point) (SegmentID, error) {
	if int(from) >= len(b.nodes) || from < 0 {
		return 0, fmt.Errorf("roadnet: from node %d out of range", from)
	}
	if int(to) >= len(b.nodes) || to < 0 {
		return 0, fmt.Errorf("roadnet: to node %d out of range", to)
	}
	shape := make(geo.Polyline, 0, len(via)+2)
	shape = append(shape, b.nodes[from].P)
	shape = append(shape, via...)
	shape = append(shape, b.nodes[to].P)
	id := SegmentID(len(b.segments))
	b.segments = append(b.segments, Segment{
		ID:     id,
		From:   from,
		To:     to,
		Shape:  shape,
		Length: shape.Length(),
		Class:  class,
		Speed:  class.DefaultSpeed(),
	})
	return id, nil
}

// AddTwoWay adds a pair of directed segments between two nodes and
// returns both ids (forward, backward).
func (b *Builder) AddTwoWay(a, c NodeID, class Class, via ...geo.Point) (SegmentID, SegmentID, error) {
	fwd, err := b.AddSegment(a, c, class, via...)
	if err != nil {
		return 0, 0, err
	}
	rev := make([]geo.Point, len(via))
	for i, p := range via {
		rev[len(via)-1-i] = p
	}
	bwd, err := b.AddSegment(c, a, class, rev...)
	if err != nil {
		return 0, 0, err
	}
	return fwd, bwd, nil
}

// Build finalizes the network: it computes CSR adjacency, packs segment
// geometry into a contiguous slab, and builds the spatial index. An
// empty builder yields an error since a usable network needs at least
// one segment.
func (b *Builder) Build() (*Network, error) {
	if len(b.segments) == 0 {
		return nil, fmt.Errorf("roadnet: cannot build a network with no segments")
	}
	return assemble(b.nodes, b.segments), nil
}

// assemble constructs the immutable flat representation from node and
// segment slices (at least one segment; callers validate). It is shared
// by Builder.Build and the binary loader. Segment shapes are repacked
// into one slab; the input shape slices are not retained.
func assemble(nodes []Node, segments []Segment) *Network {
	n := &Network{nodes: nodes, segments: segments}

	bounds := geo.Rect{Min: nodes[0].P, Max: nodes[0].P}
	for _, nd := range nodes {
		bounds = bounds.Extend(nd.P)
	}
	n.bounds = bounds

	// Pack all polylines into one slab. Each Shape becomes a
	// capacity-bounded view so an accidental append cannot clobber the
	// next segment's geometry.
	total := 0
	for i := range segments {
		total += len(segments[i].Shape)
	}
	slab := make([]geo.Point, 0, total)
	n.bearing = make([]float64, len(segments))
	for i := range segments {
		s := &segments[i]
		a := len(slab)
		slab = append(slab, s.Shape...)
		s.Shape = geo.Polyline(slab[a:len(slab):len(slab)])
		n.bearing[i] = s.Bearing()
	}
	n.shapeSlab = slab

	// CSR adjacency via counting sort. Segments are scanned in id
	// order, so each node's packed list is ascending by segment id —
	// the same order the previous append-per-node representation gave.
	n.outOff = make([]int32, len(nodes)+1)
	n.inOff = make([]int32, len(nodes)+1)
	for i := range segments {
		n.outOff[segments[i].From+1]++
		n.inOff[segments[i].To+1]++
	}
	for v := 0; v < len(nodes); v++ {
		n.outOff[v+1] += n.outOff[v]
		n.inOff[v+1] += n.inOff[v]
	}
	n.outSegs = make([]SegmentID, len(segments))
	n.inSegs = make([]SegmentID, len(segments))
	outCur := append([]int32(nil), n.outOff[:len(nodes)]...)
	inCur := append([]int32(nil), n.inOff[:len(nodes)]...)
	for i := range segments {
		s := &segments[i]
		n.outSegs[outCur[s.From]] = s.ID
		outCur[s.From]++
		n.inSegs[inCur[s.To]] = s.ID
		inCur[s.To]++
	}

	// Cell size derived from segment density so per-cell occupancy —
	// and with it candidate-lookup cost — stays flat from test lattices
	// to metro-scale extents.
	cell := spatial.AutoCellSize(bounds, len(segments), 0, 0)
	n.index = spatial.NewGrid(bounds, cell)
	for i := range segments {
		s := &segments[i]
		box, _ := s.Shape.BBox()
		n.index.Insert(segItem{shape: s.Shape, box: box})
	}
	return n
}
