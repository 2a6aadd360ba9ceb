// Package geo provides planar geometric primitives used throughout the
// map-matching pipeline: points, segments, polylines, distances,
// projections, bearings and turn angles.
//
// All coordinates are planar and expressed in meters. The synthetic city
// generator places the urban center at the origin, so Euclidean distance
// between two points is the physical distance between them. Helpers are
// provided to convert to and from WGS84 latitude/longitude for
// interoperability (GeoJSON export, external data import); the conversion
// uses a local equirectangular approximation around a configurable anchor,
// which is accurate to well under a meter at city scale.
package geo

import (
	"fmt"
	"math"
)

// Point is a location on the plane, in meters.
type Point struct {
	X float64 // east-west offset from the city origin, meters
	Y float64 // north-south offset from the city origin, meters
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Add returns p + q componentwise.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q componentwise.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dot returns the dot product of p and q viewed as vectors.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Dist returns the Euclidean distance between p and q in meters.
func (p Point) Dist(q Point) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// DistSq returns the squared Euclidean distance between p and q.
// It avoids the square root for comparison-only callers such as
// nearest-neighbour search.
func (p Point) DistSq(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Lerp returns the point a fraction t of the way from p to q.
// t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Bearing returns the direction of travel from p to q in radians,
// measured counterclockwise from the positive x axis, in (-π, π].
// Bearing from a point to itself is 0.
func (p Point) Bearing(q Point) float64 {
	return math.Atan2(q.Y-p.Y, q.X-p.X)
}

func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// earthRadius is the mean Earth radius in meters, used by the local
// equirectangular lat/lon conversion.
const earthRadius = 6371008.8

// LatLon is a WGS84 coordinate in decimal degrees.
type LatLon struct {
	Lat float64
	Lon float64
}

// Anchor fixes the lat/lon of the planar origin so planar points can be
// exported as geographic coordinates and vice versa.
type Anchor struct {
	Origin LatLon
}

// ToLatLon converts a planar point to WGS84 using the local
// equirectangular approximation around the anchor origin.
func (a Anchor) ToLatLon(p Point) LatLon {
	latRad := a.Origin.Lat * math.Pi / 180
	dLat := p.Y / earthRadius
	dLon := p.X / (earthRadius * math.Cos(latRad))
	return LatLon{
		Lat: a.Origin.Lat + dLat*180/math.Pi,
		Lon: a.Origin.Lon + dLon*180/math.Pi,
	}
}

// FromLatLon converts a WGS84 coordinate to a planar point around the
// anchor origin.
func (a Anchor) FromLatLon(ll LatLon) Point {
	latRad := a.Origin.Lat * math.Pi / 180
	dLat := (ll.Lat - a.Origin.Lat) * math.Pi / 180
	dLon := (ll.Lon - a.Origin.Lon) * math.Pi / 180
	return Point{
		X: dLon * earthRadius * math.Cos(latRad),
		Y: dLat * earthRadius,
	}
}
