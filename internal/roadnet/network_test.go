package roadnet

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

// buildGrid builds a w×h lattice with 100 m spacing and two-way local
// streets, returning the network. Node (i,j) has id j*w+i.
func buildGrid(t testing.TB, w, h int) *Network {
	t.Helper()
	var b Builder
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			b.AddNode(geo.Pt(float64(i)*100, float64(j)*100))
		}
	}
	id := func(i, j int) NodeID { return NodeID(j*w + i) }
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			if i+1 < w {
				if _, _, err := b.AddTwoWay(id(i, j), id(i+1, j), Local); err != nil {
					t.Fatal(err)
				}
			}
			if j+1 < h {
				if _, _, err := b.AddTwoWay(id(i, j), id(i, j+1), Local); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// buildJittered builds a w×h lattice with ~100 m spacing, per-node
// coordinate jitter, and random two-way street removal — small-scale
// stand-in for the synth cities. Deterministic for a given seed.
func buildJittered(t testing.TB, w, h int, dropProb float64, seed int64) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b Builder
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			b.AddNode(geo.Pt(
				float64(i)*100+rng.Float64()*40-20,
				float64(j)*100+rng.Float64()*40-20,
			))
		}
	}
	id := func(i, j int) NodeID { return NodeID(j*w + i) }
	added := 0
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			if i+1 < w && rng.Float64() >= dropProb {
				if _, _, err := b.AddTwoWay(id(i, j), id(i+1, j), Local); err != nil {
					t.Fatal(err)
				}
				added++
			}
			if j+1 < h && rng.Float64() >= dropProb {
				if _, _, err := b.AddTwoWay(id(i, j), id(i, j+1), Local); err != nil {
					t.Fatal(err)
				}
				added++
			}
		}
	}
	if added == 0 {
		t.Fatal("jittered network dropped every street; pick another seed")
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestBuilderValidation(t *testing.T) {
	var b Builder
	b.AddNode(geo.Pt(0, 0))
	if _, err := b.AddSegment(0, 5, Local); err == nil {
		t.Error("AddSegment with bad to-node did not error")
	}
	if _, err := b.AddSegment(-1, 0, Local); err == nil {
		t.Error("AddSegment with bad from-node did not error")
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build with no segments did not error")
	}
}

func TestGridTopology(t *testing.T) {
	n := buildGrid(t, 4, 3)
	if n.NumNodes() != 12 {
		t.Errorf("NumNodes = %d, want 12", n.NumNodes())
	}
	// Edges: horizontal 3*3=9, vertical 4*2=8, each two-way → 34 segments.
	if n.NumSegments() != 34 {
		t.Errorf("NumSegments = %d, want 34", n.NumSegments())
	}
	// Corner node 0 has two outgoing and two incoming.
	if len(n.Out(0)) != 2 || len(n.In(0)) != 2 {
		t.Errorf("corner degree out=%d in=%d, want 2/2", len(n.Out(0)), len(n.In(0)))
	}
	// Interior node (1,1)=5 has degree 4 both ways.
	if len(n.Out(5)) != 4 || len(n.In(5)) != 4 {
		t.Errorf("interior degree out=%d in=%d, want 4/4", len(n.Out(5)), len(n.In(5)))
	}
	// Next consistency: every segment following s starts at s.To.
	for i := 0; i < n.NumSegments(); i++ {
		s := n.Segment(SegmentID(i))
		for _, nx := range n.Next(s.ID) {
			if n.Segment(nx).From != s.To {
				t.Fatalf("Next(%d) returned segment not starting at To", s.ID)
			}
		}
	}
}

func TestSegmentGeometry(t *testing.T) {
	var b Builder
	a := b.AddNode(geo.Pt(0, 0))
	c := b.AddNode(geo.Pt(100, 0))
	sid, err := b.AddSegment(a, c, Arterial, geo.Pt(50, 50))
	if err != nil {
		t.Fatal(err)
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := n.Segment(sid)
	wantLen := geo.Polyline{geo.Pt(0, 0), geo.Pt(50, 50), geo.Pt(100, 0)}.Length()
	if s.Length != wantLen {
		t.Errorf("Length = %v, want %v", s.Length, wantLen)
	}
	if s.Speed != Arterial.DefaultSpeed() {
		t.Errorf("Speed = %v, want arterial default", s.Speed)
	}
	mid := s.Midpoint()
	if mid.Dist(geo.Pt(50, 50)) > 1e-9 {
		t.Errorf("Midpoint = %v, want (50,50)", mid)
	}
	if p := s.PointAt(0); p != geo.Pt(0, 0) {
		t.Errorf("PointAt(0) = %v", p)
	}
	if p := s.PointAt(1); p != geo.Pt(100, 0) {
		t.Errorf("PointAt(1) = %v", p)
	}
	if p := s.PointAt(-3); p != geo.Pt(0, 0) {
		t.Errorf("PointAt(-3) = %v, want clamp to start", p)
	}
}

func TestSegmentsNearAndWithin(t *testing.T) {
	n := buildGrid(t, 4, 4)
	p := geo.Pt(150, 10) // near the horizontal street y=0 between x=100..200
	near := n.SegmentsNear(p, 2)
	if len(near) != 2 {
		t.Fatalf("SegmentsNear returned %d", len(near))
	}
	for _, sid := range near {
		if d := n.DistTo(sid, p); d > 10+1e-9 {
			t.Errorf("near segment %d at distance %v", sid, d)
		}
	}
}

func TestProject(t *testing.T) {
	n := buildGrid(t, 2, 1) // single street (0,0)-(100,0), both directions
	var fwd SegmentID = -1
	for i := 0; i < n.NumSegments(); i++ {
		if s := n.Segment(SegmentID(i)); s.From == 0 && s.To == 1 {
			fwd = s.ID
		}
	}
	if fwd < 0 {
		t.Fatal("forward segment not found")
	}
	q, frac := n.Project(fwd, geo.Pt(30, 40))
	if q.Dist(geo.Pt(30, 0)) > 1e-9 || frac < 0.29 || frac > 0.31 {
		t.Errorf("Project = %v frac %v", q, frac)
	}
}

func TestBoundsAndTotalLength(t *testing.T) {
	n := buildGrid(t, 3, 3)
	b := n.Bounds()
	if b.Min != geo.Pt(0, 0) || b.Max != geo.Pt(200, 200) {
		t.Errorf("Bounds = %v", b)
	}
	// 2*2*3 horizontal + vertical unit edges of 100 m, two-way: 24 segments * 100.
	if got := n.TotalLength(); got != 2400 {
		t.Errorf("TotalLength = %v, want 2400", got)
	}
}

func TestClassString(t *testing.T) {
	if Local.String() != "local" || Arterial.String() != "arterial" || Highway.String() != "highway" {
		t.Error("class names wrong")
	}
	if Class(9).String() != "class(9)" {
		t.Errorf("unknown class = %q", Class(9).String())
	}
}
