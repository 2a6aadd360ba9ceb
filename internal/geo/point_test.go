package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPointArithmetic(t *testing.T) {
	p, q := Pt(3, 4), Pt(1, -2)
	if got := p.Add(q); got != Pt(4, 2) {
		t.Errorf("Add = %v, want (4,2)", got)
	}
	if got := p.Sub(q); got != Pt(2, 6) {
		t.Errorf("Sub = %v, want (2,6)", got)
	}
	if got := p.Scale(2); got != Pt(6, 8) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v, want -5", got)
	}
}

func TestDist(t *testing.T) {
	if d := Pt(0, 0).Dist(Pt(3, 4)); d != 5 {
		t.Errorf("Dist = %v, want 5", d)
	}
	if d := Pt(1, 1).DistSq(Pt(4, 5)); d != 25 {
		t.Errorf("DistSq = %v, want 25", d)
	}
}

func TestDistSqMatchesDist(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a, b := Pt(clampCoord(ax), clampCoord(ay)), Pt(clampCoord(bx), clampCoord(by))
		d := a.Dist(b)
		return almostEqual(d*d, a.DistSq(b), 1e-6*(1+d*d))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// clampCoord maps an arbitrary float into a sane coordinate range so
// property tests don't feed infinities or overflow-scale values.
func clampCoord(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 1e6)
}

func TestLerp(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 20)
	if got := a.Lerp(b, 0); got != a {
		t.Errorf("Lerp(0) = %v, want %v", got, a)
	}
	if got := a.Lerp(b, 1); got != b {
		t.Errorf("Lerp(1) = %v, want %v", got, b)
	}
	if got := a.Lerp(b, 0.5); got != Pt(5, 10) {
		t.Errorf("Lerp(0.5) = %v, want (5,10)", got)
	}
}

func TestBearing(t *testing.T) {
	cases := []struct {
		from, to Point
		want     float64
	}{
		{Pt(0, 0), Pt(1, 0), 0},
		{Pt(0, 0), Pt(0, 1), math.Pi / 2},
		{Pt(0, 0), Pt(-1, 0), math.Pi},
		{Pt(0, 0), Pt(0, -1), -math.Pi / 2},
		{Pt(2, 2), Pt(3, 3), math.Pi / 4},
	}
	for _, c := range cases {
		if got := c.from.Bearing(c.to); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Bearing(%v,%v) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}

func TestLatLonRoundTrip(t *testing.T) {
	a := Anchor{Origin: LatLon{Lat: 30.25, Lon: 120.17}} // Hangzhou-ish
	f := func(x, y float64) bool {
		p := Pt(math.Mod(clampCoord(x), 50000), math.Mod(clampCoord(y), 50000))
		back := a.FromLatLon(a.ToLatLon(p))
		return back.Dist(p) < 0.01 // sub-centimeter round trip
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatLonScale(t *testing.T) {
	// Moving 1000 m north must change latitude by ~1000/111195 degrees.
	a := Anchor{Origin: LatLon{Lat: 24.48, Lon: 118.09}} // Xiamen-ish
	ll := a.ToLatLon(Pt(0, 1000))
	wantDLat := 1000 / (earthRadius * math.Pi / 180)
	if !almostEqual(ll.Lat-a.Origin.Lat, wantDLat, 1e-9) {
		t.Errorf("dLat = %v, want %v", ll.Lat-a.Origin.Lat, wantDLat)
	}
	if ll.Lon != a.Origin.Lon {
		t.Errorf("moving north changed longitude: %v", ll.Lon)
	}
}

func TestAnchorKnownCity(t *testing.T) {
	// One degree of latitude is ~111.2 km everywhere; verify the anchor
	// reproduces that within the equirectangular approximation.
	a := Anchor{Origin: LatLon{Lat: 30, Lon: 120}}
	north := a.FromLatLon(LatLon{Lat: 31, Lon: 120})
	if math.Abs(north.Y-111195) > 200 {
		t.Errorf("1 degree north = %.0f m, want ≈111195", north.Y)
	}
	if math.Abs(north.X) > 1e-6 {
		t.Errorf("northward move changed X: %v", north.X)
	}
	// One degree of longitude at 30°N is ~96.3 km.
	east := a.FromLatLon(LatLon{Lat: 30, Lon: 121})
	want := 111195 * math.Cos(30*math.Pi/180)
	if math.Abs(east.X-want) > 300 {
		t.Errorf("1 degree east = %.0f m, want ≈%.0f", east.X, want)
	}
}
