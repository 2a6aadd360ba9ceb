package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	lhmm "repro"
	"repro/internal/obs"
	"repro/internal/roadnet"
)

// The -fullscale workload exercises the paper-scale regime the tables
// never reach: a metro road network around 100k segments (scale 1),
// where routing dominates a match. It measures two things on one
// generated city:
//
//  1. routed-transition throughput — k x k RouteDist fan-outs shaped
//     exactly like the matcher's Viterbi transition step — on a fresh
//     router, and the heap its tree cache holds afterwards;
//  2. end-to-end match latency (hmm.match.seconds p50/p95/p99) running
//     the classical matcher over held-out test trips on that router.

// fullscaleResult is the "fullscale" section of the -json document.
type fullscaleResult struct {
	Nodes    int `json:"nodes"`
	Segments int `json:"segments"`
	Towers   int `json:"towers"`
	// Dataset generation (network + trips + cell sampling).
	GenS float64 `json:"gen_s"`
	// Routed-transition throughput, matcher-shaped k x k fan-outs.
	TransitionK         int     `json:"transition_k"`
	FlatTransitionPairs int     `json:"flat_transition_pairs"`
	FlatUsPerPair       float64 `json:"flat_us_per_pair"`
	// Live heap the router's tree cache holds after the timed pairs, in MB.
	FlatCacheMB float64 `json:"flat_cache_mb"`
	// End-to-end matching on the same router.
	MatchedTrips int     `json:"matched_trips"`
	MatchWallS   float64 `json:"match_wall_s"`
}

// fullscaleK is the candidate-pool size per trajectory point, matching
// the k the CLI matcher uses at full scale.
const fullscaleK = 45

// transitionStep is one Viterbi-shaped unit of routing work: the
// candidate pools of two consecutive trajectory points.
type transitionStep struct {
	from, to []roadnet.PointOnRoad
}

// runFullscale executes the paper-scale workload and returns the
// result section plus a human-readable rendering.
func runFullscale(scale float64, trips int) (*fullscaleResult, string, error) {
	fs := &fullscaleResult{TransitionK: fullscaleK}
	var b strings.Builder

	start := time.Now()
	ds, err := lhmm.GenerateDataset(lhmm.SyntheticMetro(scale, trips))
	if err != nil {
		return nil, "", fmt.Errorf("generate metro dataset: %w", err)
	}
	fs.GenS = time.Since(start).Seconds()
	fs.Nodes = ds.Net.NumNodes()
	fs.Segments = ds.Net.NumSegments()
	fs.Towers = ds.Cells.NumTowers()
	fmt.Fprintf(&b, "metro scale %g: %d nodes, %d segments, %d towers, %d trips (gen %.1fs)\n",
		scale, fs.Nodes, fs.Segments, fs.Towers, len(ds.Trips), fs.GenS)

	router := lhmm.NewRouter(ds.Net)

	// Harvest matcher-shaped transition steps from held-out test trips:
	// the candidate pools of consecutive cell points, exactly what the
	// Viterbi transition scorer fans out over.
	const maxSteps, minSteps = 24, 4
	steps := harvestTransitionSteps(ds, maxSteps)
	if len(steps) < minSteps {
		return nil, "", fmt.Errorf("only %d transition steps harvested; dataset too small for -fullscale (raise -scale or -trips)", len(steps))
	}

	// The router starts cold, so the per-pair cost includes building the
	// trees the steps need. The cache size is the live heap the timed
	// pairs added, read after a collection.
	heap := liveHeap()
	start = time.Now()
	for _, st := range steps {
		for _, a := range st.from {
			for _, bp := range st.to {
				router.RouteDist(a, bp)
				fs.FlatTransitionPairs++
			}
		}
	}
	wall := time.Since(start)
	fs.FlatCacheMB = mbSince(heap)
	fs.FlatUsPerPair = wall.Seconds() * 1e6 / float64(fs.FlatTransitionPairs)
	fmt.Fprintf(&b, "transitions: %d routed pairs in %.2fs (%.1f us/pair, tree cache %.1f MB)\n",
		fs.FlatTransitionPairs, wall.Seconds(), fs.FlatUsPerPair, fs.FlatCacheMB)

	// End-to-end matching on the same router. The match-latency
	// quantiles land in hmm.match.seconds and surface in the JSON doc.
	matcher := lhmm.ClassicalMatcher(ds.Net, router, fullscaleK, 450, 500)
	const maxMatch = 25
	start = time.Now()
	for _, ti := range ds.Test {
		if fs.MatchedTrips >= maxMatch {
			break
		}
		trip := &ds.Trips[ti]
		if len(trip.Cell) < 2 {
			continue
		}
		if _, err := matcher.Match(trip.Cell); err != nil {
			return fs, b.String(), fmt.Errorf("match trip %d: %w", trip.ID, err)
		}
		fs.MatchedTrips++
	}
	fs.MatchWallS = time.Since(start).Seconds()
	snap := obs.Default.Snapshot()
	m := snap.Histograms["hmm.match.seconds"]
	fmt.Fprintf(&b, "matched %d test trips in %.1fs (p50 %.3fs, p95 %.3fs, p99 %.3fs)\n",
		fs.MatchedTrips, fs.MatchWallS, m.P50, m.P95, m.P99)
	return fs, b.String(), nil
}

// liveHeap returns the heap bytes in use after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// mbSince returns the live heap added since liveHeap returned base, in MB.
func mbSince(base uint64) float64 {
	return (float64(liveHeap()) - float64(base)) / (1 << 20)
}

// harvestTransitionSteps extracts up to n consecutive-point candidate
// pools from the test trips, skipping degenerate pools so every step
// does real k x k routing work.
func harvestTransitionSteps(ds *lhmm.Dataset, n int) []transitionStep {
	var steps []transitionStep
	pool := func(p lhmm.CellPoint) []roadnet.PointOnRoad {
		segs := ds.Net.SegmentsNear(p.P, fullscaleK)
		out := make([]roadnet.PointOnRoad, 0, len(segs))
		for _, s := range segs {
			_, frac := ds.Net.Project(s, p.P)
			out = append(out, roadnet.PointOnRoad{Seg: s, Frac: frac})
		}
		return out
	}
	for _, ti := range ds.Test {
		trip := &ds.Trips[ti]
		// Spread steps across trips: a few interior transitions each.
		for i := 1; i+1 < len(trip.Cell) && len(steps) < n; i += 4 {
			from := pool(trip.Cell[i])
			to := pool(trip.Cell[i+1])
			if len(from) < fullscaleK/2 || len(to) < fullscaleK/2 {
				continue
			}
			steps = append(steps, transitionStep{from: from, to: to})
		}
		if len(steps) >= n {
			break
		}
	}
	return steps
}
