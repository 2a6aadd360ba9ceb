package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/cellular"
	"repro/internal/traj"
)

// DatasetConfig bundles everything needed to generate a reproducible
// paired cellular+GPS dataset.
type DatasetConfig struct {
	City       CityConfig
	Trips      TripConfig
	Seed       int64
	Preprocess bool // apply the SnapNet filter chain to cellular trajectories (§V-A1)
	Filter     traj.FilterConfig
	TrainFrac  float64
	ValidFrac  float64
}

// GenerateDataset builds the city and trips and assembles a Dataset
// with train/valid/test splits. Deterministic given cfg.Seed.
func GenerateDataset(cfg DatasetConfig) (*traj.Dataset, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	city, err := GenerateCity(cfg.City, rng)
	if err != nil {
		return nil, err
	}
	trips, err := GenerateTrips(city, cfg.Trips, rng)
	if err != nil {
		return nil, err
	}
	if cfg.Preprocess {
		for i := range trips {
			trips[i].Cell = traj.Preprocess(trips[i].Cell, cfg.Filter)
		}
	}
	// Drop degenerate trips (preprocessing can empty a short noisy
	// trajectory).
	kept := trips[:0]
	for _, tr := range trips {
		if len(tr.Cell) >= 2 && len(tr.Path) >= 1 {
			tr.ID = len(kept)
			kept = append(kept, tr)
		}
	}
	if len(kept) == 0 {
		return nil, fmt.Errorf("synth: all generated trips degenerate after preprocessing")
	}
	d := &traj.Dataset{
		Name:   cfg.City.Name,
		Net:    city.Net,
		Cells:  city.Cells,
		Center: city.Center,
		Trips:  kept,
	}
	trainFrac, validFrac := cfg.TrainFrac, cfg.ValidFrac
	if trainFrac <= 0 {
		trainFrac = 0.7
	}
	if validFrac <= 0 {
		validFrac = 0.1
	}
	d.Split(trainFrac, validFrac)
	return d, nil
}

// SyntheticHangzhou returns a dataset config mirroring the shape of the
// paper's Hangzhou dataset (Table I): a large city with sparser cellular
// sampling (avg interval 67 s). scale in (0, 1] shrinks both the city
// and trip count so the full experiment suite runs on one machine;
// scale=1 approaches the paper's network size.
func SyntheticHangzhou(scale float64, trips int) DatasetConfig {
	if scale <= 0 {
		scale = 0.1
	}
	if scale > 1 {
		scale = 1
	}
	half := 4000 + 26000*scale // 30 km half-size at full scale
	return DatasetConfig{
		Seed: 20230401,
		City: CityConfig{
			Name:          "synthetic-hangzhou",
			HalfSize:      half,
			BlockSize:     220,
			CoreRadius:    half * 0.35,
			NodeJitter:    28,
			EdgeDropCore:  0.06,
			EdgeDropRural: 0.62,
			ArterialEvery: 5,
			RingRoad:      true,
			TowerCount:    int(160 + 2800*scale*scale),
		},
		Trips: TripConfig{
			Count:            trips,
			MinLen:           3200,
			MaxLen:           half * 1.8,
			RouteNoise:       0.4,
			SpeedFactorMin:   0.35, // urban congestion: long in-city travel
			SpeedFactorMax:   0.75, // times yield paper-like points/trajectory
			GPSInterval:      28,   // ≈81 GPS points on a 38-min trip
			GPSNoise:         8,
			CellMeanInterval: 67,
			CenterBias:       1.2,
			Serving:          cellular.DefaultServingModel(),
		},
		Preprocess: true,
		Filter:     traj.DefaultFilterConfig(),
		TrainFrac:  0.7,
		ValidFrac:  0.1,
	}
}

// SyntheticMetro returns a dataset config for a paper-scale city: at
// scale=1 the road network carries ~100k directed segments, matching
// the paper's Xiamen network (~92,913 segments, Table I) — the size at
// which the router's shortest-path searches dominate a match (see
// lhmm-bench -fullscale). The trip/sampling model follows the Xiamen
// preset; only the network is pushed to full scale.
func SyntheticMetro(scale float64, trips int) DatasetConfig {
	if scale <= 0 {
		scale = 0.1
	}
	if scale > 1 {
		scale = 1
	}
	half := 3500 + 16000*scale // ~196×196 lattice at full scale
	return DatasetConfig{
		Seed: 20230403,
		City: CityConfig{
			Name:          "synthetic-metro",
			HalfSize:      half,
			BlockSize:     200,
			CoreRadius:    half * 0.4,
			NodeJitter:    24,
			EdgeDropCore:  0.05,
			EdgeDropRural: 0.55,
			ArterialEvery: 4,
			RingRoad:      true,
			TowerCount:    int(200 + 2800*scale*scale),
		},
		Trips: TripConfig{
			Count:            trips,
			MinLen:           3000,
			MaxLen:           half * 1.8,
			RouteNoise:       0.35,
			SpeedFactorMin:   0.35,
			SpeedFactorMax:   0.75,
			GPSInterval:      26,
			GPSNoise:         8,
			CellMeanInterval: 42,
			CenterBias:       1.1,
			Serving:          cellular.DefaultServingModel(),
		},
		Preprocess: true,
		Filter:     traj.DefaultFilterConfig(),
		TrainFrac:  0.7,
		ValidFrac:  0.1,
	}
}

// SyntheticXiamen returns a dataset config mirroring the paper's Xiamen
// dataset (Table I): a smaller, denser city with faster cellular
// sampling (avg interval 42 s).
func SyntheticXiamen(scale float64, trips int) DatasetConfig {
	if scale <= 0 {
		scale = 0.1
	}
	if scale > 1 {
		scale = 1
	}
	half := 3500 + 18500*scale // 22 km half-size at full scale
	return DatasetConfig{
		Seed: 20230402,
		City: CityConfig{
			Name:          "synthetic-xiamen",
			HalfSize:      half,
			BlockSize:     200,
			CoreRadius:    half * 0.4,
			NodeJitter:    24,
			EdgeDropCore:  0.05,
			EdgeDropRural: 0.55,
			ArterialEvery: 4,
			RingRoad:      true,
			TowerCount:    int(140 + 2200*scale*scale),
		},
		Trips: TripConfig{
			Count:            trips,
			MinLen:           3000,
			MaxLen:           half * 1.8,
			RouteNoise:       0.35,
			SpeedFactorMin:   0.35,
			SpeedFactorMax:   0.75,
			GPSInterval:      26, // ≈88 GPS points on a 38-min trip
			GPSNoise:         8,
			CellMeanInterval: 42,
			CenterBias:       1.1,
			Serving:          cellular.DefaultServingModel(),
		},
		Preprocess: true,
		Filter:     traj.DefaultFilterConfig(),
		TrainFrac:  0.7,
		ValidFrac:  0.1,
	}
}
