package geo

import (
	"fmt"
	"math"
)

// Polyline is an ordered sequence of points describing a path on the
// plane. A polyline with fewer than two points has zero length.
type Polyline []Point

// Length returns the total length of the polyline in meters.
func (pl Polyline) Length() float64 {
	var total float64
	for i := 1; i < len(pl); i++ {
		total += pl[i-1].Dist(pl[i])
	}
	return total
}

// At returns the point a distance d from the start, measured along the
// polyline. d is clamped to [0, Length]. An empty polyline returns the
// zero Point; a single-point polyline returns that point.
func (pl Polyline) At(d float64) Point {
	if len(pl) == 0 {
		return Point{}
	}
	if d <= 0 {
		return pl[0]
	}
	for i := 1; i < len(pl); i++ {
		seg := pl[i-1].Dist(pl[i])
		if d <= seg && seg > 0 {
			return pl[i-1].Lerp(pl[i], d/seg)
		}
		d -= seg
	}
	return pl[len(pl)-1]
}

// Resample returns n points evenly spaced along the polyline, including
// both endpoints. n must be at least 2 unless the polyline is empty.
func (pl Polyline) Resample(n int) Polyline {
	if len(pl) == 0 || n <= 0 {
		return nil
	}
	if n == 1 {
		return Polyline{pl[0]}
	}
	total := pl.Length()
	out := make(Polyline, n)
	for i := 0; i < n; i++ {
		out[i] = pl.At(total * float64(i) / float64(n-1))
	}
	return out
}

// Project returns the closest point on the polyline to p, together with
// the distance along the polyline at which it occurs and the index of
// the segment containing it. An empty polyline returns the zero values
// and ok=false.
func (pl Polyline) Project(p Point) (closest Point, along float64, segIdx int, ok bool) {
	if len(pl) == 0 {
		return Point{}, 0, 0, false
	}
	if len(pl) == 1 {
		return pl[0], 0, 0, true
	}
	best := math.Inf(1)
	var walked float64
	for i := 1; i < len(pl); i++ {
		seg := Segment{pl[i-1], pl[i]}
		t := seg.ClosestFraction(p)
		q := pl[i-1].Lerp(pl[i], t)
		if d := p.DistSq(q); d < best {
			best = d
			closest = q
			along = walked + seg.Length()*t
			segIdx = i - 1
		}
		walked += seg.Length()
	}
	return closest, along, segIdx, true
}

// Dist returns the distance from p to the nearest point on the polyline:
// the point Project returns, found without the lengths along the line
// that Project also sums. It returns +Inf for an empty polyline.
func (pl Polyline) Dist(p Point) float64 {
	switch len(pl) {
	case 0:
		return math.Inf(1)
	case 1:
		return p.Dist(pl[0])
	}
	best := math.Inf(1)
	var closest Point
	for i := 1; i < len(pl); i++ {
		q := pl[i-1].Lerp(pl[i], Segment{pl[i-1], pl[i]}.ClosestFraction(p))
		if d := p.DistSq(q); d < best {
			best, closest = d, q
		}
	}
	return p.Dist(closest)
}

// BBox returns the axis-aligned bounding box of the polyline.
// It returns the zero box and ok=false for an empty polyline.
func (pl Polyline) BBox() (Rect, bool) {
	if len(pl) == 0 {
		return Rect{}, false
	}
	r := Rect{Min: pl[0], Max: pl[0]}
	for _, p := range pl[1:] {
		r = r.Extend(p)
	}
	return r, true
}

// Rect is an axis-aligned rectangle with Min at the lower-left corner.
type Rect struct {
	Min Point
	Max Point
}

// RectAround returns the square of half-width r centered on p.
func RectAround(p Point, r float64) Rect {
	return Rect{Min: Point{p.X - r, p.Y - r}, Max: Point{p.X + r, p.Y + r}}
}

// Extend returns the smallest rectangle containing both r and p.
func (r Rect) Extend(p Point) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, p.X), math.Min(r.Min.Y, p.Y)},
		Max: Point{math.Max(r.Max.X, p.X), math.Max(r.Max.Y, p.Y)},
	}
}

// Union returns the smallest rectangle containing both rectangles.
func (r Rect) Union(o Rect) Rect {
	return r.Extend(o.Min).Extend(o.Max)
}

// Contains reports whether p lies inside or on the boundary of r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Buffer returns r grown by d on every side.
func (r Rect) Buffer(d float64) Rect {
	return Rect{
		Min: Point{r.Min.X - d, r.Min.Y - d},
		Max: Point{r.Max.X + d, r.Max.Y + d},
	}
}

// Center returns the rectangle center.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Width returns Max.X - Min.X.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns Max.Y - Min.Y.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

func (r Rect) String() string {
	return fmt.Sprintf("[%v %v]", r.Min, r.Max)
}
