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
	ds      *traj.Dataset
	router  *roadnet.Router
	graph   *mrg.Graph
	lhmm    *core.Model
	lhmmVar map[string]*core.Model
	seq     map[string]baselines.Method
	errs    map[string]error
}

// NewSuite creates an empty suite.
func NewSuite(cfg SuiteConfig) *Suite {
	return &Suite{
		Cfg:     cfg,
		lhmmVar: make(map[string]*core.Model),
		seq:     make(map[string]baselines.Method),
		errs:    make(map[string]error),
	}
}

// Dataset generates (once) and returns the dataset.
func (s *Suite) Dataset() (*traj.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.datasetLocked()
}

func (s *Suite) datasetLocked() (*traj.Dataset, error) {
	if s.ds != nil {
		return s.ds, nil
	}
	if err, ok := s.errs["dataset"]; ok {
		return nil, err
	}
	ds, err := synth.GenerateDataset(s.Cfg.Dataset)
	if err != nil {
		s.errs["dataset"] = err
		return nil, err
	}
	s.ds = ds
	s.router = roadnet.NewRouter(ds.Net)
	return ds, nil
}

// Router returns the shared router.
func (s *Suite) Router() (*roadnet.Router, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.datasetLocked(); err != nil {
		return nil, err
	}
	return s.router, nil
}

// Graph builds (once) the multi-relational graph over training trips.
func (s *Suite) Graph() (*mrg.Graph, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.graph != nil {
		return s.graph, nil
	}
	ds, err := s.datasetLocked()
	if err != nil {
		return nil, err
	}
	g, err := mrg.BuildGraph(ds.Net, ds.Cells, ds.TrainTrips())
	if err != nil {
		return nil, err
	}
	s.graph = g
	return g, nil
}

// LHMM trains (once) and returns the full LHMM model.
func (s *Suite) LHMM() (*core.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lhmm != nil {
		return s.lhmm, nil
	}
	if err, ok := s.errs["lhmm"]; ok {
		return nil, err
	}
	ds, err := s.datasetLocked()
	if err != nil {
		return nil, err
	}
	m, err := core.Train(ds, s.Cfg.LHMM)
	if err != nil {
		s.errs["lhmm"] = err
		return nil, err
	}
	s.lhmm = m
	return m, nil
}

// LHMMVariant trains (once per name) an ablation variant; mod adjusts
// the base configuration.
func (s *Suite) LHMMVariant(name string, mod func(*core.Config)) (*core.Model, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.lhmmVar[name]; ok {
		return m, nil
	}
	if err, ok := s.errs["lhmm:"+name]; ok {
		return nil, err
	}
	ds, err := s.datasetLocked()
	if err != nil {
		return nil, err
	}
	cfg := s.Cfg.LHMM
	mod(&cfg)
	m, err := core.Train(ds, cfg)
	if err != nil {
		s.errs["lhmm:"+name] = err
		return nil, err
	}
	s.lhmmVar[name] = m
	return m, nil
}

// seqMethods are the seq2seq baselines, trained over the training
// split.
var seqMethods = map[string]func(*roadnet.Network, int, []*traj.Trip, baselines.Seq2SeqConfig) (baselines.Method, error){
	"DeepMM":        baselines.NewDeepMM,
	"TransformerMM": baselines.NewTransformerMM,
	"DMM":           baselines.NewDMM,
}

// SeqMethod trains (once per name) a seq2seq baseline: "DeepMM",
// "TransformerMM", or "DMM".
func (s *Suite) SeqMethod(name string) (baselines.Method, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m, ok := s.seq[name]; ok {
		return m, nil
	}
	if err, ok := s.errs["seq:"+name]; ok {
		return nil, err
	}
	build, ok := seqMethods[name]
	if !ok {
		return nil, fmt.Errorf("eval: unknown seq2seq method %q", name)
	}
	ds, err := s.datasetLocked()
	if err != nil {
		return nil, err
	}
	m, err := build(ds.Net, ds.Cells.NumTowers(), ds.TrainTrips(), s.Cfg.Seq)
	if err != nil {
		s.errs["seq:"+name] = err
		return nil, err
	}
	s.seq[name] = m
	return m, nil
}

// ablations are Table III's LHMM variants, each the base configuration
// with one part switched off or replaced.
var ablations = map[string]func(*core.Config){
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
	if name == "LHMM" {
		m, err := s.LHMM()
		if err != nil {
			return nil, err
		}
		return LHMMMethod(name, m), nil
	}
	if mod, ok := ablations[name]; ok {
		m, err := s.LHMMVariant(name, mod)
		if err != nil {
			return nil, err
		}
		return LHMMMethod(name, m), nil
	}
	if _, ok := seqMethods[name]; ok {
		return s.SeqMethod(name)
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
