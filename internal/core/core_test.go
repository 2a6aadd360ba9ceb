package core

import (
	"bytes"
	"testing"

	"repro/internal/cellular"
	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/roadnet"
	"repro/internal/synth"
	"repro/internal/traj"
)

// testDataset builds a small deterministic paired dataset.
func testDataset(t testing.TB, trips int) *traj.Dataset {
	t.Helper()
	return testDatasetSized(t, trips, 2200)
}

// testDatasetSized builds testDataset's city with the given half-width
// in metres (towers, core and blocks unchanged).
func testDatasetSized(t testing.TB, trips int, half float64) *traj.Dataset {
	t.Helper()
	cfg := synth.DatasetConfig{
		Seed: 7,
		City: synth.CityConfig{
			Name:          "core-test",
			HalfSize:      half,
			BlockSize:     250,
			CoreRadius:    1100,
			NodeJitter:    15,
			EdgeDropCore:  0.05,
			EdgeDropRural: 0.35,
			ArterialEvery: 4,
			TowerCount:    45,
		},
		Trips: synth.TripConfig{
			Count:            trips,
			MinLen:           1200,
			MaxLen:           3500,
			GPSInterval:      20,
			GPSNoise:         8,
			CellMeanInterval: 40,
			Serving:          cellular.DefaultServingModel(),
		},
		Preprocess: true,
		Filter:     traj.DefaultFilterConfig(),
		TrainFrac:  0.7,
		ValidFrac:  0.1,
	}
	d, err := synth.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fastConfig keeps training cheap for unit tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Dim = 16
	cfg.Epochs = 2
	cfg.FuseEpochs = 1
	cfg.K = 10
	cfg.PoolSize = 20
	cfg.CoPool = 8
	cfg.PairsPerTrip = 24
	return cfg
}

func TestTrainValidation(t *testing.T) {
	d := testDataset(t, 6)
	d.Train = nil
	if _, err := Train(d, fastConfig()); err == nil {
		t.Error("Train with no training trips did not error")
	}
}

func TestTrainAndMatch(t *testing.T) {
	d := testDataset(t, 20)
	m, err := Train(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.Embeddings() == nil {
		t.Fatal("no embeddings after training")
	}

	var acc metrics.Accum
	for _, tr := range d.TestTrips() {
		res, err := m.Match(tr.Cell)
		if err != nil {
			t.Fatalf("match trip %d: %v", tr.ID, err)
		}
		if len(res.Path) == 0 {
			t.Fatalf("trip %d: empty path", tr.ID)
		}
		pm := metrics.EvalPath(d.Net, res.Path, tr.Path, 50)
		acc.Add(pm)
		cands := make([][]roadnet.SegmentID, len(res.Candidates))
		for i, layer := range res.Candidates {
			for _, c := range layer {
				cands[i] = append(cands[i], c.Seg)
			}
		}
		acc.AddHR(metrics.HittingRatio(cands, tr.Path))
	}
	s := acc.Summary()
	t.Logf("LHMM on %d test trips: P=%.3f R=%.3f RMF=%.3f CMF50=%.3f HR=%.3f",
		s.Trips, s.Precision, s.Recall, s.RMF, s.CMF, s.HR)
	// Degeneracy floor only: this seed's test trips are brutally
	// sparse (5–11 points with long same-tower runs), so absolute
	// quality is asserted at bench scale by the experiment harness;
	// here we pin that the pipeline produces structured output at all.
	if s.Recall == 0 && s.Precision == 0 {
		t.Error("matcher produced zero overlap on every trip")
	}
	if s.CMF >= 0.99 {
		t.Errorf("CMF50 %.3f — matcher output is unrelated to the truth", s.CMF)
	}
	if s.HR < 0.05 {
		t.Errorf("hitting ratio %.3f implausibly low", s.HR)
	}
}

func TestMatchBeforeTraining(t *testing.T) {
	d := testDataset(t, 6)
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Match(d.Trips[0].Cell); err == nil {
		t.Error("Match without embeddings did not error")
	}
	m.RefreshEmbeddings()
	if _, err := m.Match(nil); err == nil {
		t.Error("Match with empty trajectory did not error")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// A freshly built model with the same dataset/config but untrained
	// weights, restored from the snapshot, must reproduce matches.
	m2, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	tr := d.TestTrips()[0]
	r1, err := m.Match(tr.Cell)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m2.Match(tr.Cell)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Path) != len(r2.Path) {
		t.Fatalf("restored model path length differs: %d vs %d", len(r1.Path), len(r2.Path))
	}
	for i := range r1.Path {
		if r1.Path[i] != r2.Path[i] {
			t.Fatalf("restored model path differs at %d", i)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	d := testDataset(t, 10)
	cfg := fastConfig()
	cfg.Epochs = 1
	cfg.FuseEpochs = 1
	m1, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := d.TestTrips()[0]
	r1, _ := m1.Match(tr.Cell)
	r2, _ := m2.Match(tr.Cell)
	if len(r1.Path) != len(r2.Path) {
		t.Fatal("training not deterministic")
	}
	for i := range r1.Path {
		if r1.Path[i] != r2.Path[i] {
			t.Fatal("training not deterministic: paths differ")
		}
	}
}

func TestAblationVariantsRun(t *testing.T) {
	d := testDataset(t, 10)
	variants := map[string]func(*Config){
		"LHMM-O": func(c *Config) { c.DisableImplicitObs = true },
		"LHMM-T": func(c *Config) { c.DisableImplicitTrans = true },
		"LHMM-S": func(c *Config) { c.Shortcuts = 0 },
	}
	for name, mod := range variants {
		cfg := fastConfig()
		cfg.Epochs = 1
		cfg.FuseEpochs = 1
		mod(&cfg)
		m, err := Train(d, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := d.TestTrips()[0]
		res, err := m.Match(tr.Cell)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Path) == 0 {
			t.Errorf("%s: empty path", name)
		}
	}
}

func TestCandidatePoolIncludesCoRoads(t *testing.T) {
	d := testDataset(t, 12)
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The pool must contain at least the nearest segments.
	tr := d.TestTrips()[0]
	pool := m.candidatePool(tr.Cell, 0)
	if len(pool) < m.Cfg.PoolSize {
		t.Errorf("pool size %d < %d", len(pool), m.Cfg.PoolSize)
	}
	seen := map[roadnet.SegmentID]bool{}
	for _, sid := range pool {
		if seen[sid] {
			t.Fatal("pool has duplicates")
		}
		seen[sid] = true
	}
}

// The learned matcher and the classical matcher run on the same
// trajectory must both produce connected paths; this integration test
// pins the interface contract between core and hmm.
func TestLearnedVsClassicalInterface(t *testing.T) {
	d := testDataset(t, 14)
	cfg := fastConfig()
	cfg.Epochs = 1
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	classical := &hmm.Matcher{
		Net:    d.Net,
		Router: m.Router,
		Obs:    &hmm.GaussianObservation{Net: d.Net, Sigma: 450},
		Trans:  &hmm.ExponentialTransition{Router: m.Router, Beta: 500},
		Cfg:    hmm.Config{K: 10},
	}
	tr := d.TestTrips()[0]
	for name, match := range map[string]func(traj.CellTrajectory) (*hmm.Result, error){
		"learned":   m.Match,
		"classical": classical.Match,
	} {
		res, err := match(tr.Cell)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 1; i < len(res.Path); i++ {
			if res.Path[i] == res.Path[i-1] {
				t.Errorf("%s: duplicate consecutive segment", name)
			}
		}
	}
}
