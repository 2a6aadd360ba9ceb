package shadow

import (
	"fmt"
	"sync"
)

// Stats aggregates comparisons for one candidate model. Safe for
// concurrent use.
type Stats struct {
	mu sync.Mutex

	samples      int64
	candFailures int64

	points int64
	agreed int64

	digestMatch    int64
	digestMismatch int64
	disagreements  int64

	activeDegraded int64
	candDegraded   int64
	activeGapped   int64
	candGapped     int64

	scoreDeltaN   int64
	scoreDeltaSum float64
	scoreDeltaMax float64

	marginDeltaN      int64
	marginDeltaSum    float64
	marginDeltaAbsSum float64
}

// NewStats creates an empty aggregate.
func NewStats() *Stats { return &Stats{} }

// Record folds one comparison into the aggregates.
func (s *Stats) Record(cmp *Comparison) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples++
	s.points += int64(cmp.Points)
	s.agreed += int64(cmp.Agreed)
	if cmp.CandErr == nil {
		if cmp.DigestMatch {
			s.digestMatch++
		} else {
			s.digestMismatch++
		}
	} else {
		s.candFailures++
	}
	if cmp.Disagrees() {
		s.disagreements++
	}
	if cmp.ActiveDegraded {
		s.activeDegraded++
	}
	if cmp.CandDegraded {
		s.candDegraded++
	}
	if cmp.ActiveGapped {
		s.activeGapped++
	}
	if cmp.CandGapped {
		s.candGapped++
	}
	s.scoreDeltaN += int64(cmp.ScoreDeltas)
	s.scoreDeltaSum += cmp.SumAbsScoreDelta
	if cmp.MaxAbsScoreDelta > s.scoreDeltaMax {
		s.scoreDeltaMax = cmp.MaxAbsScoreDelta
	}
	s.marginDeltaN += int64(cmp.MarginDeltas)
	s.marginDeltaSum += cmp.SumMarginDelta
	s.marginDeltaAbsSum += cmp.SumAbsMarginDelta
}

// Thresholds gate the promotion-readiness verdict. Zero values take
// the documented defaults.
type Thresholds struct {
	// MinSamples gates the verdict: below it the report says
	// insufficient_data (default 50).
	MinSamples int `json:"min_samples"`
	// MinAgreement is the minimum per-point agreement rate for a ready
	// verdict (default 0.98).
	MinAgreement float64 `json:"min_agreement"`
	// MaxQualityRegression is the maximum allowed increase of the
	// candidate's degraded/gap/failure rates over the active model's
	// (default 0.05).
	MaxQualityRegression float64 `json:"max_quality_regression"`
}

func (t Thresholds) withDefaults() Thresholds {
	if t.MinSamples <= 0 {
		t.MinSamples = 50
	}
	if t.MinAgreement <= 0 {
		t.MinAgreement = 0.98
	}
	if t.MaxQualityRegression <= 0 {
		t.MaxQualityRegression = 0.05
	}
	return t
}

// Verdict values of a Report.
const (
	VerdictReady        = "ready"
	VerdictNotReady     = "not_ready"
	VerdictInsufficient = "insufficient_data"
)

// QualityRates are per-model quality fractions over the compared
// sample set.
type QualityRates struct {
	DegradedRate float64 `json:"degraded_rate"`
	GapRate      float64 `json:"gap_rate"`
	// FailureRate is the fraction of compared requests the model failed
	// to answer (always 0 for the active model — a request it fails is
	// not compared).
	FailureRate float64 `json:"failure_rate"`
}

// Report is the `lhmm replay -against` output: the aggregate
// comparison plus the promotion verdict.
type Report struct {
	// ModelPath is the candidate's weights file (filled by the caller).
	ModelPath string `json:"model_path,omitempty"`

	Samples int64 `json:"samples"`

	PointsCompared int64   `json:"points_compared"`
	PointsAgreed   int64   `json:"points_agreed"`
	AgreementRate  float64 `json:"agreement_rate"`

	DigestMatches   int64   `json:"digest_matches"`
	DigestMismatch  int64   `json:"digest_mismatches"`
	DigestMatchRate float64 `json:"digest_match_rate"`
	Disagreements   int64   `json:"disagreements"`

	MeanAbsScoreDelta  float64 `json:"mean_abs_score_delta"`
	MaxAbsScoreDelta   float64 `json:"max_abs_score_delta"`
	MeanMarginDelta    float64 `json:"mean_margin_delta"`
	MeanAbsMarginDelta float64 `json:"mean_abs_margin_delta"`

	Active    QualityRates `json:"active"`
	Candidate QualityRates `json:"candidate"`

	// Verdict is "ready", "not_ready", or "insufficient_data"; Reasons
	// lists the violated thresholds behind a not_ready verdict.
	Verdict    string     `json:"verdict"`
	Reasons    []string   `json:"reasons,omitempty"`
	Thresholds Thresholds `json:"thresholds"`
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// Report computes the aggregate view and the promotion verdict under
// the given thresholds.
func (s *Stats) Report(t Thresholds) Report {
	t = t.withDefaults()
	s.mu.Lock()
	defer s.mu.Unlock()

	r := Report{
		Samples:        s.samples,
		PointsCompared: s.points,
		PointsAgreed:   s.agreed,
		DigestMatches:  s.digestMatch,
		DigestMismatch: s.digestMismatch,
		Disagreements:  s.disagreements,
		Thresholds:     t,
	}
	r.AgreementRate = 1
	if s.points > 0 {
		r.AgreementRate = float64(s.agreed) / float64(s.points)
	}
	if n := s.digestMatch + s.digestMismatch; n > 0 {
		r.DigestMatchRate = float64(s.digestMatch) / float64(n)
	}
	if s.scoreDeltaN > 0 {
		r.MeanAbsScoreDelta = s.scoreDeltaSum / float64(s.scoreDeltaN)
	}
	r.MaxAbsScoreDelta = s.scoreDeltaMax
	if s.marginDeltaN > 0 {
		r.MeanMarginDelta = s.marginDeltaSum / float64(s.marginDeltaN)
		r.MeanAbsMarginDelta = s.marginDeltaAbsSum / float64(s.marginDeltaN)
	}
	r.Active = QualityRates{
		DegradedRate: ratio(s.activeDegraded, s.samples),
		GapRate:      ratio(s.activeGapped, s.samples),
	}
	r.Candidate = QualityRates{
		DegradedRate: ratio(s.candDegraded, s.samples),
		GapRate:      ratio(s.candGapped, s.samples),
		FailureRate:  ratio(s.candFailures, s.samples),
	}
	if s.samples < int64(t.MinSamples) {
		r.Verdict = VerdictInsufficient
		r.Reasons = append(r.Reasons, fmt.Sprintf("samples %d < min_samples %d", s.samples, t.MinSamples))
		return r
	}
	if r.AgreementRate < t.MinAgreement {
		r.Reasons = append(r.Reasons, fmt.Sprintf("agreement_rate %.4f < min_agreement %.4f", r.AgreementRate, t.MinAgreement))
	}
	if d := r.Candidate.DegradedRate - r.Active.DegradedRate; d > t.MaxQualityRegression {
		r.Reasons = append(r.Reasons, fmt.Sprintf("degraded_rate regression %.4f > %.4f", d, t.MaxQualityRegression))
	}
	if d := r.Candidate.GapRate - r.Active.GapRate; d > t.MaxQualityRegression {
		r.Reasons = append(r.Reasons, fmt.Sprintf("gap_rate regression %.4f > %.4f", d, t.MaxQualityRegression))
	}
	if r.Candidate.FailureRate > t.MaxQualityRegression {
		r.Reasons = append(r.Reasons, fmt.Sprintf("candidate failure_rate %.4f > %.4f", r.Candidate.FailureRate, t.MaxQualityRegression))
	}
	if len(r.Reasons) > 0 {
		r.Verdict = VerdictNotReady
	} else {
		r.Verdict = VerdictReady
	}
	return r
}
