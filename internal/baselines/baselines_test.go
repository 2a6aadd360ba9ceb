package baselines

import (
	"math/rand"
	"testing"

	"repro/internal/cellular"
	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/mrg"
	"repro/internal/roadnet"
	"repro/internal/synth"
	"repro/internal/traj"
)

// world builds a small dataset plus the shared infrastructure the
// baselines need.
func world(t testing.TB, trips int) (*traj.Dataset, *roadnet.Router, *mrg.Graph) {
	t.Helper()
	cfg := synth.DatasetConfig{
		Seed: 99,
		City: synth.CityConfig{
			Name:          "bl-test",
			HalfSize:      2000,
			BlockSize:     250,
			CoreRadius:    1000,
			NodeJitter:    15,
			EdgeDropCore:  0.05,
			EdgeDropRural: 0.3,
			ArterialEvery: 4,
			TowerCount:    40,
		},
		Trips: synth.TripConfig{
			Count:            trips,
			MinLen:           1200,
			MaxLen:           3200,
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
	router := roadnet.NewRouter(d.Net)
	graph, err := mrg.BuildGraph(d.Net, d.Cells, d.TrainTrips())
	if err != nil {
		t.Fatal(err)
	}
	return d, router, graph
}

func TestHMMFamilyMethods(t *testing.T) {
	d, router, graph := world(t, 14)
	cfg := CommonConfig{K: 12}
	methods := []Method{
		NewSTM(d.Net, router, cfg),
		NewSTMWithShortcuts(d.Net, router, cfg, 1),
		NewIFM(d.Net, router, cfg),
		NewMCM(d.Net, router, cfg),
		NewSNet(d.Net, router, cfg),
		NewTHMM(d.Net, router, cfg),
		NewIVMM(d.Net, router, cfg),
		NewCLSTERS(d.Net, router, graph, cfg),
	}
	wantNames := map[string]bool{
		"STM": true, "STM+S": true, "IFM": true, "MCM": true,
		"SNet": true, "THMM": true, "IVMM": true, "CLSTERS": true,
	}
	for _, m := range methods {
		if !wantNames[m.Name()] {
			t.Errorf("unexpected method name %q", m.Name())
		}
		degenerate := 0
		trips := d.TestTrips()
		for _, tr := range trips {
			out, err := m.Match(tr.Cell)
			if err != nil {
				t.Fatalf("%s trip %d: %v", m.Name(), tr.ID, err)
			}
			if len(out.Path) == 0 {
				t.Errorf("%s trip %d: empty path", m.Name(), tr.ID)
			}
			if out.Candidates == nil {
				t.Errorf("%s: HMM method returned no candidate sets", m.Name())
			}
			pm := metrics.EvalPath(d.Net, out.Path, tr.Path, 50)
			if pm.Recall == 0 && pm.CMF == 1 {
				// Individual hard trips may defeat a GPS-era baseline
				// entirely (that is the CTMM problem); only systematic
				// failure is a bug.
				degenerate++
			}
		}
		if degenerate*2 > len(trips) {
			t.Errorf("%s: degenerate on %d/%d trips", m.Name(), degenerate, len(trips))
		}
		// Empty trajectory errors.
		if _, err := m.Match(nil); err == nil {
			t.Errorf("%s: empty trajectory did not error", m.Name())
		}
	}
}

// TestModelsKeepShortcutContract pins, for every model a baseline plugs
// into hmm.Matcher, what the shortcut pass rests on when it reads the
// forward pass's tables instead of calling the models again: Score of a
// candidate Candidates returned is that candidate's Obs
// (hmm.ObservationModel), and a transition scored twice gives the same
// answer (hmm.TransitionModel), both with ==. The learned session is
// held to the same by core's TestCandidatesMatchScalarObsScore and
// TestScoreBatchMatchesTransScore.
func TestModelsKeepShortcutContract(t *testing.T) {
	d, router, _ := world(t, 14)
	cfg := CommonConfig{K: 6}
	ct := d.TestTrips()[0].Cell
	if len(ct) > 5 {
		ct = ct[:5]
	}
	for _, meth := range []Method{
		NewSTMWithShortcuts(d.Net, router, cfg, 1), // hmm.GaussianObservation, stmTransition
		NewIFM(d.Net, router, cfg),
		NewMCM(d.Net, router, cfg),
		NewSNet(d.Net, router, cfg),
		NewTHMM(d.Net, router, cfg),
		NewIVMM(d.Net, router, cfg), // ivmmObservation, hmm.ExponentialTransition
	} {
		m := meth.(*hmmMethod).matcher
		var prev []hmm.Candidate
		pairs := 0
		for i := range ct {
			cands := m.Obs.Candidates(ct, i, cfg.K)
			for _, c := range cands {
				if got := m.Obs.Score(ct, i, &c); got != c.Obs {
					t.Fatalf("%s point %d seg %d: Score %v, Candidates gave Obs %v", meth.Name(), i, c.Seg, got, c.Obs)
				}
				for _, p := range prev {
					w, ok := m.Trans.Score(ct, i, &p, &c)
					if w2, ok2 := m.Trans.Score(ct, i, &p, &c); w2 != w || ok2 != ok {
						t.Fatalf("%s step %d %d→%d: scored (%v, %v), then (%v, %v)", meth.Name(), i, p.Seg, c.Seg, w, ok, w2, ok2)
					}
					pairs++
				}
			}
			prev = cands
		}
		if pairs == 0 {
			t.Fatalf("%s: no transition scored", meth.Name())
		}
	}
}

func seqCfg() Seq2SeqConfig {
	return Seq2SeqConfig{Dim: 12, Epochs: 2, MaxTarget: 50, Seed: 5}
}

func TestDeepMM(t *testing.T) {
	d, _, _ := world(t, 12)
	s, err := TrainSeq2Seq(d.Net, d.Cells.NumTowers(), d.TrainTrips(), seqCfg())
	if err != nil {
		t.Fatal(err)
	}
	m := s.DeepMM()
	if m.Name() != "DeepMM" {
		t.Errorf("Name = %q", m.Name())
	}
	tr := d.TestTrips()[0]
	out, err := m.Match(tr.Cell)
	if err != nil {
		t.Fatal(err)
	}
	// Greedy decode may be short but must produce something and no
	// immediate repeats.
	for i := 1; i < len(out.Path); i++ {
		if out.Path[i] == out.Path[i-1] {
			t.Error("consecutive duplicate segment in decode")
		}
	}
	if _, err := m.Match(nil); err == nil {
		t.Error("empty trajectory did not error")
	}
}

func TestDMMConstrainedDecode(t *testing.T) {
	d, _, _ := world(t, 12)
	s, err := TrainSeq2Seq(d.Net, d.Cells.NumTowers(), d.TrainTrips(), seqCfg())
	if err != nil {
		t.Fatal(err)
	}
	m := s.DMM()
	if m.Name() != "DMM" {
		t.Errorf("Name = %q", m.Name())
	}
	for _, tr := range d.TestTrips()[:2] {
		out, err := m.Match(tr.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Path) == 0 {
			t.Fatal("DMM produced empty path")
		}
		// The defining property: the decoded path is connected on the
		// road graph.
		for i := 1; i < len(out.Path); i++ {
			if d.Net.Segment(out.Path[i-1]).To != d.Net.Segment(out.Path[i]).From {
				t.Fatalf("DMM path not connected at %d", i)
			}
		}
	}
}

func TestTransformerMM(t *testing.T) {
	d, _, _ := world(t, 10)
	cfg := seqCfg()
	cfg.Epochs = 1
	m, err := NewTransformerMM(d.Net, d.Cells.NumTowers(), d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "TransformerMM" {
		t.Errorf("Name = %q", m.Name())
	}
	tr := d.TestTrips()[0]
	out, err := m.Match(tr.Cell)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(out.Path); i++ {
		if out.Path[i] == out.Path[i-1] {
			t.Error("consecutive duplicate segment in transformer decode")
		}
	}
	if _, err := m.Match(nil); err == nil {
		t.Error("empty trajectory did not error")
	}
}

// Each seq2seq-family model must fit the trips it trained on: matched
// on those same trips, its paths must clear the case's bound. A model
// that cannot is broken, not data-limited.
func TestSeq2SeqLearnsTrainingData(t *testing.T) {
	cases := []struct {
		name   string
		world  int // trips generated
		train  int // leading train trips the model trains and is checked on, 0 = all
		cfg    Seq2SeqConfig
		build  func(d *traj.Dataset, trips []*traj.Trip, cfg Seq2SeqConfig) (Method, error)
		bound  string
		passes func(ms []metrics.PathMetrics, p, r float64) bool // p, r: the means
	}{
		{
			// Corridor-level overlap on one of the first three trips:
			// the reward-shaped decode follows the trajectory corridor
			// even when it picks parallel segments.
			name:  "DMM",
			world: 10,
			cfg:   Seq2SeqConfig{Dim: 16, Epochs: 6, MaxTarget: 50, Seed: 6},
			build: func(d *traj.Dataset, trips []*traj.Trip, cfg Seq2SeqConfig) (Method, error) {
				s, err := TrainSeq2Seq(d.Net, d.Cells.NumTowers(), trips, cfg)
				if err != nil {
					return nil, err
				}
				return s.DMM(), nil
			},
			bound: "recall > 0.1 or CMF < 0.8 on one of the first 3 trips",
			passes: func(ms []metrics.PathMetrics, _, _ float64) bool {
				for _, pm := range ms[:3] {
					if pm.Recall > 0.1 || pm.CMF < 0.8 {
						return true
					}
				}
				return false
			},
		},
		{
			// TransformerMM's Table II numbers are limited by its
			// training budget: given enough epochs it reproduces its
			// training paths exactly (P = R = 1.000 at seeds 6, 7, 8).
			name:  "TransformerMM",
			world: 14,
			train: 8,
			cfg:   Seq2SeqConfig{Dim: 32, Epochs: 60, MaxTarget: 90, Seed: 6},
			build: func(d *traj.Dataset, trips []*traj.Trip, cfg Seq2SeqConfig) (Method, error) {
				return NewTransformerMM(d.Net, d.Cells.NumTowers(), trips, cfg)
			},
			bound:  "mean precision >= 0.9 and mean recall >= 0.9",
			passes: func(_ []metrics.PathMetrics, p, r float64) bool { return p >= 0.9 && r >= 0.9 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			d, _, _ := world(t, c.world)
			trips := d.TrainTrips()
			if c.train > 0 {
				trips = trips[:c.train]
			}
			m, err := c.build(d, trips, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			ms := make([]metrics.PathMetrics, len(trips))
			for i, tr := range trips {
				out, err := m.Match(tr.Cell)
				if err != nil {
					t.Fatal(err)
				}
				ms[i] = metrics.EvalPath(d.Net, out.Path, tr.Path, 100)
			}
			var p, r float64
			for _, pm := range ms {
				p += pm.Precision
				r += pm.Recall
			}
			p, r = p/float64(len(ms)), r/float64(len(ms))
			t.Logf("%d training trips: mean precision %.3f, recall %.3f", len(ms), p, r)
			if !c.passes(ms, p, r) {
				t.Errorf("%s on its %d training trips misses the bound (%s): %+v", c.name, len(trips), c.bound, ms)
			}
		})
	}
}

func TestGRUCellShapes(t *testing.T) {
	// Covered indirectly above; here pin the parameter count.
	c := NewGRUCell("g", 4, 8, randSrc())
	if got := len(c.Params()); got != 9 {
		t.Errorf("GRU params = %d, want 9", got)
	}
}

func randSrc() *rand.Rand { return rand.New(rand.NewSource(1)) }
