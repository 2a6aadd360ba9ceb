// Package core implements LHMM itself (§IV): the learned observation
// probability (attentive context-aware point–road correlation fused
// with explicit features, Eqs. 6–8), the learned transition probability
// (attentive trajectory–path relevance fused with explicit features,
// Eqs. 9–12), the two-phase training pipeline, and inference that
// plugs both learners into the HMM path-finding backbone with the
// shortcut-augmented candidate graph (§IV-E).
package core

import (
	"repro/internal/hmm"
	"repro/internal/mrg"
	"repro/internal/traj"
)

// Config parameterizes LHMM training and inference. Zero values select
// the defaults noted on each field (applied by withDefaults).
type Config struct {
	// Dim is the embedding dimension (the paper uses 128; experiments
	// at repo scale default to 32, which preserves the result shape at
	// a fraction of the cost).
	Dim int
	// EncoderMode selects the representation learner; HetGNN is the
	// paper's model, the others are the -H and -E ablations.
	EncoderMode mrg.EncoderMode

	// K is the number of candidate roads per point (paper: 30).
	K int
	// Shortcuts is the number of shortcut predecessors per candidate
	// (paper: 1; 0 disables — the -S ablation).
	Shortcuts int
	// PoolSize is the minimum pool size (nearest segments top up the
	// pool when the radius captures fewer). Default 3×K.
	PoolSize int
	// CoPool is how many top co-occurring roads of the point's tower
	// join the pool. Default K.
	CoPool int

	// DisableImplicitObs removes the implicit point-road correlation
	// from P_O (ablation LHMM-O).
	DisableImplicitObs bool
	// DisableImplicitTrans removes the implicit trajectory-path
	// correlation from P_T (ablation LHMM-T).
	DisableImplicitTrans bool

	// Epochs is the number of phase-1 passes over the training trips.
	// Default 4.
	Epochs int
	// FuseEpochs is the number of phase-2 (fine-tune) passes. Default 2.
	FuseEpochs int
	// PairsPerTrip bounds the number of classification pairs sampled
	// from one trip per pass. Default 48.
	PairsPerTrip int
	// Seed drives all sampling and initialization.
	Seed int64

	// OnBreak selects how matching treats a point with no candidate
	// roads: error out (the default, the paper's assumption), skip the
	// point, or split the trajectory into independently matched
	// segments stitched with explicit Gap markers. See hmm.BreakPolicy.
	OnBreak hmm.BreakPolicy
	// Sanitize selects input validation before matching: strict (the
	// default; malformed points error), drop (malformed points are
	// removed and reported), or off. See traj.SanitizeMode.
	Sanitize traj.SanitizeMode

	// Trace attaches a per-trajectory obs.MatchTrace to every Match
	// result (candidate stats, Viterbi breaks, stage wall-clock).
	// Off by default; costs a few clock reads per match when on.
	Trace bool

	// Explain attaches a per-decision hmm.Explain artifact to every
	// Match result: top-k candidate emission breakdowns (learned score
	// vs. classical fallback), the chosen backpointer with step score
	// and route, and winner/runner-up margins. Off by default; costs
	// per-point allocations and one route query per chosen transition.
	Explain bool
}

// DefaultConfig returns the configuration used by the experiment
// harness.
func DefaultConfig() Config {
	return Config{
		Dim:          32,
		EncoderMode:  mrg.HetGNN,
		K:            30,
		Shortcuts:    1,
		Epochs:       4,
		FuseEpochs:   2,
		PairsPerTrip: 48,
		Seed:         1,
	}
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Dim <= 0 {
		c.Dim = 32
	}
	if c.K <= 0 {
		c.K = 30
	}
	if c.PoolSize <= 0 {
		c.PoolSize = 3 * c.K
	}
	if c.CoPool <= 0 {
		c.CoPool = c.K
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.FuseEpochs <= 0 {
		c.FuseEpochs = 2
	}
	if c.PairsPerTrip <= 0 {
		c.PairsPerTrip = 48
	}
	return c
}
