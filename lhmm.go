// Package lhmm is a production-quality Go reproduction of "LHMM: A
// Learning Enhanced HMM Model for Cellular Trajectory Map Matching"
// (Shi et al., ICDE 2023).
//
// The library map-matches cellular trajectories — sequences of cell
// tower observations with positioning errors of 0.1–3 km — onto a road
// network, by fusing learned observation and transition probabilities
// into a Hidden Markov Model path-finder with shortcut-augmented
// Viterbi decoding.
//
// # Quick start
//
//	cfg := lhmm.SyntheticXiamen(0.05, 200)       // or your own dataset
//	ds, err := lhmm.GenerateDataset(cfg)
//	model, err := lhmm.Train(ds, lhmm.DefaultConfig())
//	result, err := model.Match(ds.TestTrips()[0].Cell)
//	// result.Path is the matched road-segment sequence.
//
// The package is a facade over the implementation packages:
// internal/core (the LHMM model), internal/hmm (the HMM backbone),
// internal/mrg (multi-relational representation learning),
// internal/baselines (the paper's ten comparison methods),
// internal/synth (the synthetic city and trip simulator standing in
// for the paper's proprietary operator datasets), internal/metrics and
// internal/eval (the evaluation harness regenerating every table and
// figure). See DESIGN.md for the system inventory.
package lhmm

import (
	"repro/internal/baselines"
	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/roadnet"
	"repro/internal/synth"
	"repro/internal/traj"
)

// Core data types.
type (
	// Point is a planar coordinate in meters.
	Point = geo.Point
	// Polyline is an ordered point sequence.
	Polyline = geo.Polyline
	// CellPoint is one cellular positioning observation.
	CellPoint = traj.CellPoint
	// CellTrajectory is a cellular sampling sequence (Definition 2).
	CellTrajectory = traj.CellTrajectory
	// GPSPoint is one GPS observation.
	GPSPoint = traj.GPSPoint
	// Trip is a journey with ground truth and both sampling modalities.
	Trip = traj.Trip
	// Dataset bundles networks and trips with train/valid/test splits.
	Dataset = traj.Dataset
	// Network is a directed road network (Definition 3).
	Network = roadnet.Network
	// NetworkBuilder accumulates nodes and segments into a Network.
	NetworkBuilder = roadnet.Builder
	// SegmentID identifies a directed road segment.
	SegmentID = roadnet.SegmentID
	// NodeID identifies a road-network node.
	NodeID = roadnet.NodeID
	// Router answers shortest-path queries with memoization.
	Router = roadnet.Router
	// TowerID identifies a cell tower.
	TowerID = cellular.TowerID
	// CellNet is a set of cell towers with spatial indexing.
	CellNet = cellular.Net
)

// Model types.
type (
	// Config parameterizes LHMM training and inference.
	Config = core.Config
	// Model is a trained LHMM. Model.MatchContext matches with
	// cancellation and a panic-hardened boundary.
	Model = core.Model
	// MatchResult is the outcome of matching one trajectory.
	MatchResult = hmm.Result
	// Candidate is one candidate road for one trajectory point.
	Candidate = hmm.Candidate
	// Explain is the per-decision explanation artifact attached to a
	// MatchResult when Config.Explain is set: top-k candidate emission
	// breakdowns, chosen backpointers with step scores and routes, and
	// winner/runner-up margins.
	Explain = hmm.Explain
	// ExplainPoint explains the decision at one trajectory point.
	ExplainPoint = hmm.ExplainPoint
)

// Fault-tolerance types. A matcher configured with OnBreak and
// Sanitize policies survives dead points (no candidate roads), corrupt
// model scores, and malformed input instead of erroring or panicking;
// see the Robustness sections of README.md and DESIGN.md.
type (
	// BreakPolicy selects how matching treats a point with no
	// candidate roads: BreakError (default), BreakSkip, or BreakSplit.
	BreakPolicy = hmm.BreakPolicy
	// Gap marks a stitch discontinuity in a BreakSplit match.
	Gap = hmm.Gap
	// GapReason explains a Gap (no candidates vs. Viterbi break).
	GapReason = hmm.GapReason
	// SanitizeMode selects input validation: SanitizeStrict (default),
	// SanitizeDrop, or SanitizeOff.
	SanitizeMode = traj.SanitizeMode
	// SanitizeReport counts what drop-mode sanitization removed.
	SanitizeReport = traj.SanitizeReport
)

// Break policies (see hmm.BreakPolicy).
const (
	BreakError = hmm.BreakError
	BreakSkip  = hmm.BreakSkip
	BreakSplit = hmm.BreakSplit
)

// Sanitize modes (see traj.SanitizeMode).
const (
	SanitizeStrict = traj.SanitizeStrict
	SanitizeDrop   = traj.SanitizeDrop
	SanitizeOff    = traj.SanitizeOff
)

// Gap reasons (see hmm.GapReason).
const (
	GapNoCandidates = hmm.GapNoCandidates
	GapViterbiBreak = hmm.GapViterbiBreak
)

// ParseBreakPolicy parses the CLI spelling of a break policy
// ("error", "skip", or "split").
func ParseBreakPolicy(s string) (BreakPolicy, error) { return hmm.ParseBreakPolicy(s) }

// ParseSanitizeMode parses the CLI spelling of a sanitize mode
// ("strict", "drop", or "off").
func ParseSanitizeMode(s string) (SanitizeMode, error) { return traj.ParseSanitizeMode(s) }

// Sanitize validates or repairs a cellular trajectory per the mode —
// the same pass Model.Match applies (per Config.Sanitize), exported
// for pipelines that want to sanitize ahead of preprocessing.
func Sanitize(ct CellTrajectory, mode SanitizeMode) (CellTrajectory, SanitizeReport, error) {
	return traj.Sanitize(ct, mode)
}

// Evaluation types.
type (
	// PathMetrics are per-trip accuracy measures (precision, recall,
	// RMF, CMF).
	PathMetrics = metrics.PathMetrics
	// Summary aggregates metrics over an evaluation run.
	Summary = metrics.Summary
	// Method is any map-matching algorithm under evaluation.
	Method = baselines.Method
	// DatasetConfig drives the synthetic dataset generator.
	DatasetConfig = synth.DatasetConfig
	// CityConfig drives the synthetic road-network generator.
	CityConfig = synth.CityConfig
	// TripConfig drives trip simulation and sampling.
	TripConfig = synth.TripConfig
	// FilterConfig parameterizes the SnapNet preprocessing chain.
	FilterConfig = traj.FilterConfig
)

// DefaultConfig returns the LHMM configuration used by the experiment
// harness (embedding dim 32, q=2 encoder rounds, k=30 candidates, one
// shortcut, Adam with the paper's §V-A2 hyper-parameters).
func DefaultConfig() Config { return core.DefaultConfig() }

// Train builds and trains an LHMM on the dataset's training split.
func Train(ds *Dataset, cfg Config) (*Model, error) { return core.Train(ds, cfg) }

// NewModel builds the skeleton a saved model loads into: graph, router
// and heads, no encoder. It cannot be trained or saved; Load fills it.
func NewModel(ds *Dataset, trainTrips []*Trip, cfg Config) (*Model, error) {
	return core.NewForLoad(ds, trainTrips, cfg)
}

// LoadModel builds a model over ds from the weights file at path; the
// embedding dimension is read from the file, not from cfg.
func LoadModel(ds *Dataset, path string, cfg Config) (*Model, error) {
	return core.LoadModel(ds, path, cfg)
}

// GenerateDataset builds a synthetic paired cellular+GPS dataset.
func GenerateDataset(cfg DatasetConfig) (*Dataset, error) {
	return synth.GenerateDataset(cfg)
}

// SyntheticHangzhou returns a dataset config mirroring the paper's
// Hangzhou dataset shape (Table I) at the given scale in (0, 1].
func SyntheticHangzhou(scale float64, trips int) DatasetConfig {
	return synth.SyntheticHangzhou(scale, trips)
}

// SyntheticXiamen returns a dataset config mirroring the paper's
// Xiamen dataset shape (Table I).
func SyntheticXiamen(scale float64, trips int) DatasetConfig {
	return synth.SyntheticXiamen(scale, trips)
}

// SyntheticMetro returns a dataset config for a paper-scale city: at
// scale=1 the road network carries ~100k directed segments, matching
// the paper's Xiamen network size (Table I).
func SyntheticMetro(scale float64, trips int) DatasetConfig {
	return synth.SyntheticMetro(scale, trips)
}

// Preprocess applies the paper's filter chain (speed, α-trimmed mean,
// direction filters) to a cellular trajectory.
func Preprocess(ct CellTrajectory, cfg FilterConfig) CellTrajectory {
	return traj.Preprocess(ct, cfg)
}

// DefaultFilterConfig returns the preprocessing defaults (§V-A1).
func DefaultFilterConfig() FilterConfig { return traj.DefaultFilterConfig() }

// EvalPath compares a matched path against the ground truth with the
// given CMF corridor radius in meters (the paper reports CMF50).
func EvalPath(net *Network, matched, truth []SegmentID, corridor float64) PathMetrics {
	return metrics.EvalPath(net, matched, truth, corridor)
}

// Evaluate runs a method over trips and aggregates the paper's metrics.
func Evaluate(ds *Dataset, m Method, trips []*Trip, corridor float64) Summary {
	s, _ := eval.EvaluateMethod(ds, m, trips, corridor)
	return s
}

// AsMethod adapts a trained model to the evaluation Method interface.
func AsMethod(name string, m *Model) Method { return eval.LHMMMethod(name, m) }

// NewRouter builds a shortest-path router over a network.
func NewRouter(net *Network, opts ...roadnet.RouterOption) *Router {
	return roadnet.NewRouter(net, opts...)
}

// ClassicalMatcher builds the classical distance-probability HMM
// matcher (Eqs. 2–3) — the non-learned reference point. A zero k,
// sigma or beta takes the baselines' default (45, 450 m, 500 m).
func ClassicalMatcher(net *Network, router *Router, k int, sigma, beta float64) Method {
	return baselines.NewClassical(net, router, baselines.CommonConfig{K: k, Sigma: sigma, Beta: beta})
}

// StreamMatcher is the online fixed-lag matcher: push points as they
// arrive and receive finalized matches Lag points behind real time.
// For learned-model streaming, call (*Model).NewStream(lag) — one
// StreamMatcher per device trajectory, since streaming LHMM keeps
// per-trajectory context. The lhmm-serve session endpoints are a
// network front-end over exactly that constructor.
type StreamMatcher = hmm.StreamMatcher

// SessionSnapshotInfo is the model-independent summary of a durable
// streaming-session snapshot (the lhmm-session/v3 files lhmm-serve
// writes under -checkpoint-dir), as reported by `lhmm sessions
// inspect`.
type SessionSnapshotInfo = core.SnapshotInfo

// InspectSessionSnapshot validates a snapshot's framing (magic, CRC,
// version, structural invariants) and summarizes it without needing
// the dataset or model. Safe on arbitrary bytes.
func InspectSessionSnapshot(data []byte) (*SessionSnapshotInfo, error) {
	return core.InspectStreamSnapshot(data)
}

// NewClassicalStream builds a streaming matcher over the classical
// distance-probability models with the given emission lag (the
// non-learned counterpart of (*Model).NewStream). Zero arguments take
// the defaults ClassicalMatcher's do.
func NewClassicalStream(net *Network, router *Router, k, lag int, sigma, beta float64) *StreamMatcher {
	cfg := baselines.CommonConfig{K: k, Sigma: sigma, Beta: beta}
	return hmm.NewStreamMatcher(baselines.NewMatcher(net, router, cfg, 0, nil, nil), lag)
}
