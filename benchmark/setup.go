package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	lhmm "repro"
)

// options are the benchmark's arguments. The recorded numbers are the
// defaults; the smoke test shrinks them.
type options struct {
	Scale      float64
	Trips      int
	TrainTrips int
	ValidTrips int
	Dim        int
	DataSeed   int64   // added to the metro preset's seed and the model seed
	Seed       int64   // workload seed: request order and arrival gaps
	Seconds    float64 // measured phase length the work sizes are cut for
	OutDir     string
}

func defaultOptions() options {
	return options{
		Scale: 0.10, Trips: 240, TrainTrips: 4, ValidTrips: 2, Dim: 128,
		Seed: 1, Seconds: runSeconds, OutDir: "out",
	}
}

// runSeconds is BENCHMARK.json's run_seconds: the measured phase the
// sizes below fill on the machine the benchmark was sized on.
const runSeconds = 10

// sizes are the work counts of one run. They are fixed counts, not
// durations, so every run of a workload does the same work; -seconds
// scales them linearly from the runSeconds defaults.
type sizes struct {
	HotTrips          int     // |H|, the last test trips
	DistinctTrips     int     // |D|, the first test trips, all timed from a cold router
	HotPasses         int     // batch_hot: timed passes over H
	ClosedPerClient   int     // serve_hot: closed-loop requests per client
	OpenRequests      int     // serve_hot: open-loop requests
	OpenRate          float64 // serve_hot: open-loop arrivals per second
	SessionsPerDevice int     // stream_hot: timed sessions per device
	Clients           int     // connections and client goroutines of the HTTP workloads
}

func sizesFor(seconds float64) sizes {
	f := seconds / runSeconds
	n := func(base int) int {
		if v := int(math.Round(float64(base) * f)); v > 1 {
			return v
		}
		return 1
	}
	return sizes{
		HotTrips:          8,
		DistinctTrips:     n(80),
		HotPasses:         n(24),
		ClosedPerClient:   n(48),
		OpenRequests:      n(144),
		OpenRate:          16, // half of the 33 to 35 requests/s the closed loop reaches on the sizing machine; README.md has why not two thirds
		SessionsPerDevice: n(125),
		Clients:           2,
	}
}

// fixture is what set-up produces and every workload starts from: the
// generated city and trips, the saved weights of a lightly trained
// model, and the trip sets.
type fixture struct {
	ds      *lhmm.Dataset
	cfg     lhmm.Config
	weights []byte
	hot     []*lhmm.Trip // H
	dist    []*lhmm.Trip // D
	model   *lhmm.Model  // loaded by the last set-up; consumed by the first freshModel
}

// setupTimes are the phases of one set-up, in seconds.
type setupTimes struct {
	GenerateS, TrainS, SaveS, NewModelS, LoadS, TotalS float64
}

// buildFixture runs set-up once: generate the metro city and trips,
// train, save the weights to memory, then construct and load a model
// the way lhmm-serve's loader does. The weights are too large to
// commit, so every invocation pays this.
func buildFixture(opt options, sz sizes, rec *recorder) (*fixture, setupTimes, error) {
	var st setupTimes
	root := rec.start("setup", nil, "")
	defer root.end()
	t0 := time.Now()

	dc := lhmm.SyntheticMetro(opt.Scale, opt.Trips)
	dc.Seed += opt.DataSeed
	// Half a trip of slack keeps the split sizes exact under rounding.
	dc.TrainFrac = (float64(opt.TrainTrips) + 0.5) / float64(opt.Trips)
	dc.ValidFrac = (float64(opt.ValidTrips) + 0.5) / float64(opt.Trips)
	sp := rec.start("synth.GenerateDataset", root, "")
	ds, err := lhmm.GenerateDataset(dc)
	st.GenerateS = sp.end()
	if err != nil {
		return nil, st, fmt.Errorf("generate dataset: %w", err)
	}

	cfg := lhmm.DefaultConfig()
	cfg.Dim, cfg.Epochs, cfg.FuseEpochs = opt.Dim, 1, 1
	cfg.Seed += opt.DataSeed
	sp = rec.start("core.Train", root, "")
	trained, err := lhmm.Train(ds, cfg)
	st.TrainS = sp.end()
	if err != nil {
		return nil, st, fmt.Errorf("train: %w", err)
	}
	var buf bytes.Buffer
	sp = rec.start("core.Save", root, "")
	err = trained.Save(&buf)
	st.SaveS = sp.end()
	if err != nil {
		return nil, st, fmt.Errorf("save weights: %w", err)
	}

	fx := &fixture{ds: ds, cfg: cfg, weights: buf.Bytes()}
	test := ds.TestTrips()
	if len(test) < sz.HotTrips+sz.DistinctTrips {
		return nil, st, fmt.Errorf("%d test trips, need %d distinct + %d hot", len(test), sz.DistinctTrips, sz.HotTrips)
	}
	fx.dist = test[:sz.DistinctTrips]
	fx.hot = test[len(test)-sz.HotTrips:]

	fx.model, st.NewModelS, st.LoadS, err = fx.load(rec, root)
	if err != nil {
		return nil, st, err
	}
	st.TotalS = time.Since(t0).Seconds()
	return fx, st, nil
}

// load is lhmm-serve's loader path: a new model skeleton over the
// resident dataset, then the saved weights.
func (fx *fixture) load(rec *recorder, parent *span) (m *lhmm.Model, newS, loadS float64, err error) {
	sp := rec.start("core.NewModel", parent, "")
	m, err = lhmm.NewModel(fx.ds, fx.ds.TrainTrips(), fx.cfg)
	newS = sp.end()
	if err != nil {
		return nil, newS, 0, fmt.Errorf("new model: %w", err)
	}
	sp = rec.start("core.Load", parent, "")
	err = m.Load(bytes.NewReader(fx.weights))
	loadS = sp.end()
	if err != nil {
		return nil, newS, loadS, fmt.Errorf("load weights: %w", err)
	}
	return m, newS, loadS, nil
}

// freshModel returns a model no workload has touched, so router and
// pool caches start empty and workloads do not depend on their order.
func (fx *fixture) freshModel() (*lhmm.Model, error) {
	if m := fx.model; m != nil {
		fx.model = nil
		return m, nil
	}
	m, _, _, err := fx.load(nil, nil)
	return m, err
}

// shuffled returns xs in an order drawn from the workload seed. The
// set is unchanged, so every seed does the same work in another order.
func shuffled[T any](xs []T, seed int64) []T {
	out := append([]T(nil), xs...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
