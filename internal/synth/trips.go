package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// TripConfig parameterizes trip generation and both sampling modalities.
type TripConfig struct {
	Count int
	// MinLen / MaxLen bound the ground-truth path length in meters.
	MinLen float64
	MaxLen float64
	// RouteNoise perturbs per-segment routing weights by a per-trip
	// uniform factor in [1, 1+RouteNoise] so ground-truth paths are
	// plausible rather than exactly shortest. Default 0.35.
	RouteNoise float64
	// SpeedFactorMin/Max bound the per-segment congestion multiplier on
	// free-flow speed. Defaults 0.5 / 1.0.
	SpeedFactorMin float64
	SpeedFactorMax float64
	// GPSInterval is the GPS sampling period in seconds; GPSNoise the
	// per-sample Gaussian position noise in meters.
	GPSInterval float64
	GPSNoise    float64
	// CellMeanInterval is the mean cellular sampling period in seconds.
	// Actual intervals are uniform in [0.35, 1.95]× the mean, yielding
	// max/mean interval ratios near the paper's Table I.
	CellMeanInterval float64
	// CenterBias concentrates trip origins near the city center: an
	// endpoint at distance r from the center is accepted with
	// probability exp(-CenterBias·r/HalfSize). 0 disables.
	CenterBias float64
	// Serving is the cellular positioning model.
	Serving cellular.ServingModel
}

// GenerateTrips simulates trips on the city. Unroutable OD pairs are
// re-drawn; generation fails if the city cannot support the requested
// trip lengths after many attempts.
func GenerateTrips(city *City, cfg TripConfig, rng *rand.Rand) ([]traj.Trip, error) {
	if cfg.Count <= 0 {
		return nil, nil
	}
	if len(city.Routable) < 2 {
		return nil, fmt.Errorf("synth: city has no routable component")
	}
	routeNoise := cfg.RouteNoise
	if routeNoise <= 0 {
		routeNoise = 0.35
	}
	sfMin, sfMax := cfg.SpeedFactorMin, cfg.SpeedFactorMax
	if sfMin <= 0 {
		sfMin = 0.5
	}
	if sfMax <= sfMin {
		sfMax = math.Max(1.0, sfMin+0.1)
	}
	gpsInterval := cfg.GPSInterval
	if gpsInterval <= 0 {
		gpsInterval = 15
	}
	cellInterval := cfg.CellMeanInterval
	if cellInterval <= 0 {
		cellInterval = 60
	}

	halfSize := math.Max(city.Net.Bounds().Width(), city.Net.Bounds().Height()) / 2

	trips := make([]traj.Trip, 0, cfg.Count)
	maxAttempts := cfg.Count * 200
	attempts := 0
	for len(trips) < cfg.Count {
		attempts++
		if attempts > maxAttempts {
			return nil, fmt.Errorf("synth: could not generate %d routable trips (made %d after %d attempts); relax MinLen/MaxLen",
				cfg.Count, len(trips), attempts)
		}
		from := pickEndpoint(city, cfg.CenterBias, halfSize, rng)
		to := pickEndpoint(city, cfg.CenterBias, halfSize, rng)
		straight := city.Net.Node(from).P.Dist(city.Net.Node(to).P)
		if straight < cfg.MinLen*0.6 || straight > cfg.MaxLen {
			continue
		}
		// Per-trip perturbed weights, drawn from the trip's own stream in
		// the search's call order. ShortestPathWeighted calls weight at
		// most once per segment (once per segment out of each settled
		// node), so each segment's factor is drawn once and needs no
		// memo.
		tripSeed := rng.Int63()
		wRng := rand.New(rand.NewSource(tripSeed))
		weight := func(s *roadnet.Segment) float64 {
			return s.Length * (1 + wRng.Float64()*routeNoise)
		}
		path, _, ok := city.Net.ShortestPathWeighted(from, to, weight)
		if !ok || len(path) == 0 {
			continue
		}
		var pathLen float64
		for _, sid := range path {
			pathLen += city.Net.Segment(sid).Length
		}
		if pathLen < cfg.MinLen || pathLen > cfg.MaxLen {
			continue
		}
		trip := simulateTrip(city, cfg, path, gpsInterval, cellInterval, sfMin, sfMax, rng)
		trip.ID = len(trips)
		trips = append(trips, trip)
	}
	return trips, nil
}

// pickEndpoint draws a routable node, biased toward the center when
// CenterBias > 0.
func pickEndpoint(city *City, bias, halfSize float64, rng *rand.Rand) roadnet.NodeID {
	for {
		id := city.Routable[rng.Intn(len(city.Routable))]
		if bias <= 0 {
			return id
		}
		r := city.Net.Node(id).P.Dist(city.Center)
		if rng.Float64() < math.Exp(-bias*r/halfSize) {
			return id
		}
	}
}

// simulateTrip drives along the path with a congestion-noised speed
// model and samples both modalities.
func simulateTrip(city *City, cfg TripConfig, path []roadnet.SegmentID,
	gpsInterval, cellInterval, sfMin, sfMax float64, rng *rand.Rand) traj.Trip {

	// Build the path geometry and the cumulative (distance, time) curve.
	var geom geo.Polyline
	var cumDist []float64 // distance at each segment boundary
	var cumTime []float64 // time at each segment boundary
	var d, tm float64
	cumDist = append(cumDist, 0)
	cumTime = append(cumTime, 0)
	for i, sid := range path {
		seg := city.Net.Segment(sid)
		if i == 0 {
			geom = append(geom, seg.Shape...)
		} else {
			geom = append(geom, seg.Shape[1:]...)
		}
		speed := seg.Speed * (sfMin + rng.Float64()*(sfMax-sfMin))
		d += seg.Length
		tm += seg.Length / speed
		cumDist = append(cumDist, d)
		cumTime = append(cumTime, tm)
	}
	totalTime := tm

	// distAt maps a time to a distance along the path by piecewise
	// linear interpolation over segment boundaries.
	distAt := func(t float64) float64 {
		if t <= 0 {
			return 0
		}
		if t >= totalTime {
			return d
		}
		// Binary search over cumTime.
		lo, hi := 0, len(cumTime)-1
		for lo+1 < hi {
			mid := (lo + hi) / 2
			if cumTime[mid] <= t {
				lo = mid
			} else {
				hi = mid
			}
		}
		span := cumTime[hi] - cumTime[lo]
		if span == 0 {
			return cumDist[lo]
		}
		frac := (t - cumTime[lo]) / span
		return cumDist[lo] + frac*(cumDist[hi]-cumDist[lo])
	}

	// GPS sampling.
	var gps []traj.GPSPoint
	for t := 0.0; t <= totalTime; t += gpsInterval {
		p := geom.At(distAt(t))
		if cfg.GPSNoise > 0 {
			p = p.Add(geo.Pt(rng.NormFloat64()*cfg.GPSNoise, rng.NormFloat64()*cfg.GPSNoise))
		}
		gps = append(gps, traj.GPSPoint{P: p, T: t})
	}

	// Cellular sampling: serving tower at jittered intervals.
	var cell traj.CellTrajectory
	prev := cellular.TowerID(-1)
	t := 0.0
	for {
		p := geom.At(distAt(t))
		id := cfg.Serving.Serve(rng, city.Cells, p, prev)
		if id >= 0 {
			cell = append(cell, traj.CellPoint{
				Tower: id,
				P:     city.Cells.Tower(id).P,
				T:     t,
			})
			prev = id
		}
		if t >= totalTime {
			break
		}
		t += cellInterval * (0.35 + rng.Float64()*1.6)
		if t > totalTime {
			t = totalTime
		}
	}

	return traj.Trip{
		Path:     append([]roadnet.SegmentID(nil), path...),
		PathGeom: geom,
		GPS:      gps,
		Cell:     cell,
	}
}
