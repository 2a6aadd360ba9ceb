package shadow

import (
	"errors"
	"math"
	"testing"

	"repro/internal/hmm"
	"repro/internal/roadnet"
)

func rseg(s int) roadnet.SegmentID { return roadnet.SegmentID(s) }

func res(segs []int, dead []bool) *hmm.Result {
	r := &hmm.Result{
		Matched: make([]hmm.Candidate, len(segs)),
		Dead:    dead,
	}
	for i, s := range segs {
		r.Matched[i].Seg = rseg(s)
		r.Matched[i].Obs = 0.5
	}
	if r.Dead == nil {
		r.Dead = make([]bool, len(segs))
	}
	return r
}

func TestCompareFullAgreement(t *testing.T) {
	a := res([]int{1, 2, 3}, nil)
	c := res([]int{1, 2, 3}, nil)
	body := []byte(`{"x":1}`)
	cmp := Compare(a, c, body, body)
	if cmp.Points != 3 || cmp.Agreed != 3 {
		t.Fatalf("points/agreed = %d/%d, want 3/3", cmp.Points, cmp.Agreed)
	}
	if !cmp.DigestMatch || cmp.Disagrees() {
		t.Fatalf("identical results should not disagree: %+v", cmp)
	}
}

func TestCompareSegmentDisagreement(t *testing.T) {
	a := res([]int{1, 2, 3}, nil)
	c := res([]int{1, 9, 3}, nil)
	cmp := Compare(a, c, []byte("a"), []byte("c"))
	if cmp.Agreed != 2 {
		t.Fatalf("agreed = %d, want 2", cmp.Agreed)
	}
	if cmp.DigestMatch {
		t.Fatal("different bodies must not digest-match")
	}
	if !cmp.Disagrees() {
		t.Fatal("segment mismatch must disagree")
	}
}

// Both models declaring a point dead is agreement; one-sided death is
// not.
func TestCompareDeadPoints(t *testing.T) {
	a := res([]int{1, 0, 3}, []bool{false, true, false})
	c := res([]int{1, 0, 3}, []bool{false, true, false})
	body := []byte("b")
	cmp := Compare(a, c, body, body)
	if cmp.Agreed != 3 || cmp.ActiveDead != 1 || cmp.CandDead != 1 {
		t.Fatalf("both-dead should agree: %+v", cmp)
	}

	c2 := res([]int{1, 2, 3}, nil)
	cmp = Compare(a, c2, body, []byte("b2"))
	if cmp.Agreed != 2 {
		t.Fatalf("one-sided dead point counted as agreement: %+v", cmp)
	}
}

// Extra matched points on either side count as disagreements via the
// max-length Points denominator.
func TestCompareLengthMismatch(t *testing.T) {
	a := res([]int{1, 2, 3, 4}, nil)
	c := res([]int{1, 2}, nil)
	cmp := Compare(a, c, []byte("a"), []byte("c"))
	if cmp.Points != 4 || cmp.Agreed != 2 {
		t.Fatalf("points/agreed = %d/%d, want 4/2", cmp.Points, cmp.Agreed)
	}
}

func TestCompareScoreDeltas(t *testing.T) {
	a := res([]int{1, 2}, nil)
	c := res([]int{1, 2}, nil)
	a.Matched[0].Obs, c.Matched[0].Obs = 0.9, 0.6 // |Δ| = 0.3
	a.Matched[1].Obs, c.Matched[1].Obs = 0.5, 0.4 // |Δ| = 0.1
	cmp := Compare(a, c, []byte("b"), []byte("b"))
	if cmp.ScoreDeltas != 2 {
		t.Fatalf("score deltas = %d, want 2", cmp.ScoreDeltas)
	}
	if math.Abs(cmp.SumAbsScoreDelta-0.4) > 1e-12 {
		t.Fatalf("sum abs score delta = %v, want 0.4", cmp.SumAbsScoreDelta)
	}
	if math.Abs(cmp.MaxAbsScoreDelta-0.3) > 1e-12 {
		t.Fatalf("max abs score delta = %v, want 0.3", cmp.MaxAbsScoreDelta)
	}
}

// Non-finite scores are sanitized to 0 before differencing, mirroring
// the wire encoder.
func TestCompareNonFiniteScores(t *testing.T) {
	a := res([]int{1}, nil)
	c := res([]int{1}, nil)
	a.Matched[0].Obs = math.NaN()
	c.Matched[0].Obs = math.Inf(1)
	cmp := Compare(a, c, []byte("b"), []byte("b"))
	if cmp.SumAbsScoreDelta != 0 || cmp.MaxAbsScoreDelta != 0 {
		t.Fatalf("non-finite scores must sanitize to zero delta: %+v", cmp)
	}
}

func TestCompareMarginDeltas(t *testing.T) {
	a := res([]int{1, 2}, nil)
	c := res([]int{1, 2}, nil)
	a.Explain = &hmm.Explain{Points: []hmm.ExplainPoint{
		{Chosen: &hmm.ExplainChoice{Seg: 1, Margin: 2.0}},
		{Chosen: &hmm.ExplainChoice{Seg: 2, Margin: 1.0}},
	}}
	c.Explain = &hmm.Explain{Points: []hmm.ExplainPoint{
		{Chosen: &hmm.ExplainChoice{Seg: 1, Margin: 2.5}}, // Δ = +0.5
		{Chosen: &hmm.ExplainChoice{Seg: 2, Margin: 0.2}}, // Δ = -0.8
	}}
	cmp := Compare(a, c, []byte("b"), []byte("b"))
	if cmp.MarginDeltas != 2 {
		t.Fatalf("margin deltas = %d, want 2", cmp.MarginDeltas)
	}
	if math.Abs(cmp.SumMarginDelta-(-0.3)) > 1e-12 {
		t.Fatalf("signed margin sum = %v, want -0.3", cmp.SumMarginDelta)
	}
	if math.Abs(cmp.SumAbsMarginDelta-1.3) > 1e-12 {
		t.Fatalf("abs margin sum = %v, want 1.3", cmp.SumAbsMarginDelta)
	}
}

// With zero compared points the agreement rate is 1 (no evidence of
// divergence); each Record folds its points and digests in.
func TestStatsAggregates(t *testing.T) {
	s := NewStats()
	if r := s.Report(Thresholds{}); r.AgreementRate != 1 || r.Samples != 0 {
		t.Fatalf("empty stats agreement = %v/%d, want 1/0", r.AgreementRate, r.Samples)
	}
	cmp := Compare(res([]int{1, 2}, nil), res([]int{1, 9}, nil), []byte("a"), []byte("c"))
	s.Record(&cmp)
	r := s.Report(Thresholds{})
	if r.Samples != 1 || r.AgreementRate != 0.5 {
		t.Fatalf("agreement = %v/%d, want 0.5/1", r.AgreementRate, r.Samples)
	}
	if r.PointsCompared != 2 || r.PointsAgreed != 1 || r.DigestMismatch != 1 || r.Disagreements != 1 {
		t.Fatalf("aggregates off: %+v", r)
	}
}

func TestReportVerdicts(t *testing.T) {
	th := Thresholds{MinSamples: 2, MinAgreement: 0.9, MaxQualityRegression: 0.05}
	agree := func() Comparison {
		body := []byte("b")
		return Compare(res([]int{1, 2}, nil), res([]int{1, 2}, nil), body, body)
	}

	s := NewStats()
	cmp := agree()
	s.Record(&cmp)
	if rep := s.Report(th); rep.Verdict != VerdictInsufficient {
		t.Fatalf("1 sample < min 2: verdict %q, want insufficient_data", rep.Verdict)
	}

	cmp = agree()
	s.Record(&cmp)
	rep := s.Report(th)
	if rep.Verdict != VerdictReady || len(rep.Reasons) != 0 {
		t.Fatalf("full agreement: verdict %q reasons %v, want ready", rep.Verdict, rep.Reasons)
	}
	if rep.AgreementRate != 1 || rep.DigestMatchRate != 1 {
		t.Fatalf("rates %v/%v, want 1/1", rep.AgreementRate, rep.DigestMatchRate)
	}

	// Low agreement flips to not_ready with a reason.
	s = NewStats()
	for i := 0; i < 2; i++ {
		bad := Compare(res([]int{1, 2}, nil), res([]int{9, 8}, nil), []byte("a"), []byte("c"))
		s.Record(&bad)
	}
	rep = s.Report(th)
	if rep.Verdict != VerdictNotReady || len(rep.Reasons) == 0 {
		t.Fatalf("zero agreement: verdict %q reasons %v, want not_ready", rep.Verdict, rep.Reasons)
	}

	// Candidate failures count against the quality-regression budget.
	s = NewStats()
	cmp = agree()
	s.Record(&cmp)
	fail := Comparison{Points: 2, CandErr: errors.New("boom")}
	s.Record(&fail)
	rep = s.Report(th)
	if rep.Verdict != VerdictNotReady {
		t.Fatalf("50%% candidate failures: verdict %q, want not_ready", rep.Verdict)
	}
	if rep.Candidate.FailureRate != 0.5 {
		t.Fatalf("candidate failure rate %v, want 0.5", rep.Candidate.FailureRate)
	}
}

// Zero-valued thresholds fall back to the documented defaults inside
// Report, so a caller passing Thresholds{} still gets a real gate.
func TestThresholdDefaults(t *testing.T) {
	s := NewStats()
	cmp := Compare(res([]int{1}, nil), res([]int{1}, nil), []byte("b"), []byte("b"))
	s.Record(&cmp)
	rep := s.Report(Thresholds{})
	if rep.Thresholds.MinSamples != 50 || rep.Thresholds.MinAgreement != 0.98 || rep.Thresholds.MaxQualityRegression != 0.05 {
		t.Fatalf("defaults not applied: %+v", rep.Thresholds)
	}
	if rep.Verdict != VerdictInsufficient {
		t.Fatalf("1 sample under default min 50: verdict %q", rep.Verdict)
	}
}

func TestComparisonDisagrees(t *testing.T) {
	ok := Comparison{Points: 3, Agreed: 3, DigestMatch: true}
	if ok.Disagrees() {
		t.Fatal("full agreement flagged as disagreement")
	}
	for _, c := range []Comparison{
		{Points: 3, Agreed: 2, DigestMatch: true},
		{Points: 3, Agreed: 3, DigestMatch: false},
		{Points: 3, Agreed: 3, DigestMatch: true, CandErr: errors.New("x")},
	} {
		if !c.Disagrees() {
			t.Fatalf("should disagree: %+v", c)
		}
	}
}
