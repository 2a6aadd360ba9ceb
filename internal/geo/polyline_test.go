package geo

import (
	"math"
	"math/rand"
	"testing"
)

func TestPolylineLength(t *testing.T) {
	cases := []struct {
		pl   Polyline
		want float64
	}{
		{nil, 0},
		{Polyline{Pt(0, 0)}, 0},
		{Polyline{Pt(0, 0), Pt(3, 4)}, 5},
		{Polyline{Pt(0, 0), Pt(3, 4), Pt(3, 10)}, 11},
	}
	for _, c := range cases {
		if got := c.pl.Length(); got != c.want {
			t.Errorf("Length(%v) = %v, want %v", c.pl, got, c.want)
		}
	}
}

func TestPolylineAt(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	cases := []struct {
		d    float64
		want Point
	}{
		{-5, Pt(0, 0)},
		{0, Pt(0, 0)},
		{5, Pt(5, 0)},
		{10, Pt(10, 0)},
		{15, Pt(10, 5)},
		{20, Pt(10, 10)},
		{99, Pt(10, 10)}, // past the end clamps
	}
	for _, c := range cases {
		if got := pl.At(c.d); got.Dist(c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	if got := (Polyline{}).At(3); got != (Point{}) {
		t.Errorf("empty At = %v, want zero", got)
	}
	if got := (Polyline{Pt(7, 8)}).At(3); got != Pt(7, 8) {
		t.Errorf("single-point At = %v, want (7,8)", got)
	}
}

func TestPolylineResample(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(10, 0)}
	rs := pl.Resample(5)
	if len(rs) != 5 {
		t.Fatalf("Resample len = %d, want 5", len(rs))
	}
	for i, p := range rs {
		want := Pt(2.5*float64(i), 0)
		if p.Dist(want) > 1e-9 {
			t.Errorf("Resample[%d] = %v, want %v", i, p, want)
		}
	}
	if rs := (Polyline{}).Resample(3); rs != nil {
		t.Errorf("empty Resample = %v, want nil", rs)
	}
	if rs := pl.Resample(1); len(rs) != 1 || rs[0] != pl[0] {
		t.Errorf("Resample(1) = %v, want start point", rs)
	}
}

func TestPolylineProject(t *testing.T) {
	pl := Polyline{Pt(0, 0), Pt(10, 0), Pt(10, 10)}
	q, along, seg, ok := pl.Project(Pt(4, 3))
	if !ok || q.Dist(Pt(4, 0)) > 1e-12 || !almostEqual(along, 4, 1e-12) || seg != 0 {
		t.Errorf("Project = %v along %v seg %d ok %v", q, along, seg, ok)
	}
	q, along, seg, ok = pl.Project(Pt(13, 7))
	if !ok || q.Dist(Pt(10, 7)) > 1e-12 || !almostEqual(along, 17, 1e-12) || seg != 1 {
		t.Errorf("Project = %v along %v seg %d ok %v", q, along, seg, ok)
	}
	if _, _, _, ok := (Polyline{}).Project(Pt(0, 0)); ok {
		t.Error("empty Project reported ok")
	}
	if d := (Polyline{}).Dist(Pt(0, 0)); !math.IsInf(d, 1) {
		t.Errorf("empty Dist = %v, want +Inf", d)
	}
}

// Property: At(along) for the projected point returns (approximately)
// the projection itself, and the projection is the true closest point
// among dense samples.
func TestPolylineProjectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(6)
		pl := make(Polyline, n)
		for i := range pl {
			pl[i] = randPt(rng)
		}
		p := randPt(rng)
		q, along, _, ok := pl.Project(p)
		if !ok {
			t.Fatal("Project not ok")
		}
		if pl.At(along).Dist(q) > 1e-6 {
			t.Fatalf("At(along)=%v disagrees with projection %v", pl.At(along), q)
		}
		best := p.Dist(q)
		total := pl.Length()
		for i := 0; i <= 100; i++ {
			s := pl.At(total * float64(i) / 100)
			if p.Dist(s) < best-1e-6 {
				t.Fatalf("found closer point %v (%.4f) than projection %v (%.4f)",
					s, p.Dist(s), q, best)
			}
		}
	}
}

func TestRect(t *testing.T) {
	r := RectAround(Pt(0, 0), 10)
	if !r.Contains(Pt(10, -10)) {
		t.Error("boundary point not contained")
	}
	if r.Contains(Pt(10.1, 0)) {
		t.Error("outside point contained")
	}
	far := Rect{Pt(100, 100), Pt(110, 110)}
	u := r.Union(far)
	if u.Min != Pt(-10, -10) || u.Max != Pt(110, 110) {
		t.Errorf("Union = %v", u)
	}
	b := r.Buffer(5)
	if b.Min != Pt(-15, -15) || b.Max != Pt(15, 15) {
		t.Errorf("Buffer = %v", b)
	}
	if c := r.Center(); c != Pt(0, 0) {
		t.Errorf("Center = %v", c)
	}
	if r.Width() != 20 || r.Height() != 20 {
		t.Errorf("Width/Height = %v/%v", r.Width(), r.Height())
	}
}

func TestPolylineBBox(t *testing.T) {
	if _, ok := (Polyline{}).BBox(); ok {
		t.Error("empty BBox reported ok")
	}
	r, ok := Polyline{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}.BBox()
	if !ok || r.Min != Pt(-2, -1) || r.Max != Pt(4, 5) {
		t.Errorf("BBox = %v ok=%v", r, ok)
	}
}

// TestPolylineDistIsProjectDist holds Dist to the distance from p to the
// point Project returns, bit for bit, on random polylines with repeated
// vertices (zero-length pieces) and points near two pieces at once.
func TestPolylineDistIsProjectDist(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 2000; trial++ {
		pl := make(Polyline, 1+rng.Intn(6))
		for i := range pl {
			pl[i] = randPt(rng)
			if i > 0 && rng.Intn(4) == 0 {
				pl[i] = pl[i-1]
			}
		}
		p := randPt(rng)
		if trial%5 == 0 && len(pl) > 2 {
			p = pl[0].Lerp(pl[2], 0.5)
		}
		q, _, _, _ := pl.Project(p)
		if got, want := pl.Dist(p), p.Dist(q); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: Dist %v, distance to Project's point %v", trial, got, want)
		}
	}
}
