package eval

import (
	"fmt"
	"sync"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/hmm"
	"repro/internal/mrg"
	"repro/internal/roadnet"
	"repro/internal/synth"
	"repro/internal/traj"
)

// SuiteConfig sizes one dataset's experiment suite.
type SuiteConfig struct {
	// Dataset is the generator preset.
	Dataset synth.DatasetConfig
	// LHMM is the model configuration (K=30 per the paper).
	LHMM core.Config
	// Baseline is the HMM-family configuration (K=45 per the paper).
	Baseline baselines.CommonConfig
	// Seq is the seq2seq-family configuration.
	Seq baselines.Seq2SeqConfig
}

// DefaultSuite returns the experiment sizing used by the benchmark
// harness: a scaled-down city preserving the paper's dataset shape
// (Table I ratios) at single-machine cost.
func DefaultSuite(preset string, scale float64, trips int) SuiteConfig {
	var ds synth.DatasetConfig
	switch preset {
	case "xiamen":
		ds = synth.SyntheticXiamen(scale, trips)
	default:
		ds = synth.SyntheticHangzhou(scale, trips)
	}
	lhmm := core.DefaultConfig()
	lhmm.Dim = 24
	lhmm.Epochs = 3
	lhmm.FuseEpochs = 2
	lhmm.K = 30
	lhmm.Shortcuts = 1
	return SuiteConfig{
		Dataset:  ds,
		LHMM:     lhmm,
		Baseline: baselines.CommonConfig{K: 45, Sigma: hmm.ClassicalSigma, Beta: hmm.ClassicalBeta},
		Seq:      baselines.Seq2SeqConfig{Dim: 24, Epochs: 4, Seed: 3},
	}
}

// Suite lazily materializes the dataset, shared infrastructure, and
// trained models for one city's experiments. All getters are safe for
// concurrent use and memoize their results.
type Suite struct {
	Cfg SuiteConfig

	mu      sync.Mutex
	entries map[string]*entry
}

// entry is one memoized value of a Suite: built once, its value and
// error kept.
type entry struct {
	once sync.Once
	val  any
	err  error
}

// NewSuite creates an empty suite.
func NewSuite(cfg SuiteConfig) *Suite {
	return &Suite{Cfg: cfg, entries: make(map[string]*entry)}
}

// memo returns the value under key, building it on first use. A build
// may resolve other keys, never its own.
func memo[T any](s *Suite, key string, build func() (T, error)) (T, error) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &entry{}
		s.entries[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	if e.err != nil {
		var zero T
		return zero, e.err
	}
	return e.val.(T), nil
}

// Dataset generates (once) and returns the dataset.
func (s *Suite) Dataset() (*traj.Dataset, error) {
	return memo(s, "dataset", func() (*traj.Dataset, error) {
		return synth.GenerateDataset(s.Cfg.Dataset)
	})
}

// Router returns the shared router.
func (s *Suite) Router() (*roadnet.Router, error) {
	return memo(s, "router", func() (*roadnet.Router, error) {
		ds, err := s.Dataset()
		if err != nil {
			return nil, err
		}
		return roadnet.NewRouter(ds.Net), nil
	})
}

// Graph builds (once) the multi-relational graph over training trips.
func (s *Suite) Graph() (*mrg.Graph, error) {
	return memo(s, "graph", func() (*mrg.Graph, error) {
		ds, err := s.Dataset()
		if err != nil {
			return nil, err
		}
		return mrg.BuildGraph(ds.Net, ds.Cells, ds.TrainTrips())
	})
}

// LHMM trains (once) and returns the full LHMM model.
func (s *Suite) LHMM() (*core.Model, error) {
	return s.lhmm("LHMM")
}

// lhmm trains (once per name) one of lhmmVariants. LHMM-S is not
// trained: training reads Shortcuts only to calibrate γ, so it is
// LHMM's weights with γ calibrated again without shortcuts
// (core.Model.WithShortcuts).
func (s *Suite) lhmm(name string) (*core.Model, error) {
	return memo(s, name, func() (*core.Model, error) {
		ds, err := s.Dataset()
		if err != nil {
			return nil, err
		}
		if name == "LHMM-S" {
			base, err := s.LHMM()
			if err != nil {
				return nil, err
			}
			return base.WithShortcuts(ds, 0), nil
		}
		cfg := s.Cfg.LHMM
		lhmmVariants[name](&cfg)
		return core.Train(ds, cfg)
	})
}

// seq2seq trains (once) the recurrent model DeepMM and DMM decode.
func (s *Suite) seq2seq() (*baselines.Seq2Seq, error) {
	return memo(s, "seq2seq", func() (*baselines.Seq2Seq, error) {
		ds, err := s.Dataset()
		if err != nil {
			return nil, err
		}
		return baselines.TrainSeq2Seq(ds.Net, ds.Cells.NumTowers(), ds.TrainTrips(), s.Cfg.Seq)
	})
}

// lhmmVariants are Table III's LHMM rows: the base configuration, and
// each ablation with one part switched off or replaced.
var lhmmVariants = map[string]func(*core.Config){
	"LHMM":   func(*core.Config) {},
	"LHMM-E": func(c *core.Config) { c.EncoderMode = mrg.MLPOnly },
	"LHMM-H": func(c *core.Config) { c.EncoderMode = mrg.HomoGNN },
	"LHMM-O": func(c *core.Config) { c.DisableImplicitObs = true },
	"LHMM-T": func(c *core.Config) { c.DisableImplicitTrans = true },
	"LHMM-S": func(c *core.Config) { c.Shortcuts = 0 },
}

// Method resolves any method of the experiments by name, training it
// if needed: "LHMM", a Table III ablation, a seq2seq baseline, or a
// non-learned method NewBaseline builds.
func (s *Suite) Method(name string) (baselines.Method, error) {
	if _, ok := lhmmVariants[name]; ok {
		m, err := s.lhmm(name)
		if err != nil {
			return nil, err
		}
		return LHMMMethod(name, m), nil
	}
	switch name {
	case "DeepMM", "DMM":
		m, err := s.seq2seq()
		if err != nil {
			return nil, err
		}
		if name == "DMM" {
			return m.DMM(), nil
		}
		return m.DeepMM(), nil
	case "TransformerMM":
		return memo(s, name, func() (baselines.Method, error) {
			ds, err := s.Dataset()
			if err != nil {
				return nil, err
			}
			return baselines.NewTransformerMM(ds.Net, ds.Cells.NumTowers(), ds.TrainTrips(), s.Cfg.Seq)
		})
	}
	ds, err := s.Dataset()
	if err != nil {
		return nil, err
	}
	router, err := s.Router()
	if err != nil {
		return nil, err
	}
	return NewBaseline(name, ds, router, s.Graph, s.Cfg.Baseline)
}

// NewBaseline builds a non-learned method by name over a dataset: the
// classical "HMM" (Eqs. 2–3) or one of the HMM-family baselines. graph
// is called only for CLSTERS, which calibrates against the training
// split's co-occurrence graph.
func NewBaseline(name string, ds *traj.Dataset, router *roadnet.Router, graph func() (*mrg.Graph, error), cfg baselines.CommonConfig) (baselines.Method, error) {
	switch name {
	case "HMM":
		return baselines.NewClassical(ds.Net, router, cfg), nil
	case "STM":
		return baselines.NewSTM(ds.Net, router, cfg), nil
	case "STM+S":
		return baselines.NewSTMWithShortcuts(ds.Net, router, cfg, 1), nil
	case "IVMM":
		return baselines.NewIVMM(ds.Net, router, cfg), nil
	case "IFM":
		return baselines.NewIFM(ds.Net, router, cfg), nil
	case "MCM":
		return baselines.NewMCM(ds.Net, router, cfg), nil
	case "SNet":
		return baselines.NewSNet(ds.Net, router, cfg), nil
	case "THMM":
		return baselines.NewTHMM(ds.Net, router, cfg), nil
	case "CLSTERS":
		g, err := graph()
		if err != nil {
			return nil, err
		}
		return baselines.NewCLSTERS(ds.Net, router, g, cfg), nil
	default:
		return nil, fmt.Errorf("eval: unknown method %q", name)
	}
}
