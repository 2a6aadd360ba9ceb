package hmm

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// deadObs wraps an observation model, returning no candidates for the
// listed point indices — a deterministic stand-in for off-map outliers.
type deadObs struct {
	ObservationModel
	dead map[int]bool
}

func (d deadObs) Candidates(ct traj.CellTrajectory, i, k int) []Candidate {
	if d.dead[i] {
		return nil
	}
	return d.ObservationModel.Candidates(ct, i, k)
}

// nanObs corrupts every observation probability to NaN (a misbehaving
// learned model); the matcher must degrade to the Eq. 2 fallback.
type nanObs struct{ ObservationModel }

func (n nanObs) Candidates(ct traj.CellTrajectory, i, k int) []Candidate {
	out := n.ObservationModel.Candidates(ct, i, k)
	for j := range out {
		out[j].Obs = math.NaN()
	}
	return out
}

// nanTrans reports every movement reachable but with a NaN probability;
// the matcher must degrade to the Eq. 3 fallback.
type nanTrans struct{ TransitionModel }

func (n nanTrans) Score(ct traj.CellTrajectory, i int, from, to *Candidate) (float64, bool) {
	if _, ok := n.TransitionModel.Score(ct, i, from, to); !ok {
		return 0, false
	}
	return math.NaN(), true
}

// lineTraj is a 5-point west-east track across the grid.
func lineTraj() traj.CellTrajectory {
	return trajAlong(
		geo.Pt(50, 100), geo.Pt(150, 100), geo.Pt(250, 100),
		geo.Pt(350, 100), geo.Pt(450, 100),
	)
}

func deadMatcher(net *roadnet.Network, r *roadnet.Router, policy BreakPolicy, dead ...int) *Matcher {
	m := classicMatcher(net, r, 5, 0)
	dm := map[int]bool{}
	for _, i := range dead {
		dm[i] = true
	}
	m.Obs = deadObs{m.Obs, dm}
	m.Cfg.OnBreak = policy
	return m
}

func TestBreakErrorPolicy(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	if _, err := deadMatcher(net, r, BreakError, 2).Match(lineTraj()); err == nil {
		t.Fatal("dead point under BreakError did not error")
	}
}

func TestBreakSkip(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	res, err := deadMatcher(net, r, BreakSkip, 2).Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dead[2] {
		t.Error("point 2 not marked dead")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if res.Dead[i] {
			t.Errorf("alive point %d marked dead", i)
		}
		if res.Matched[i].Obs <= 0 {
			t.Errorf("alive point %d has no match", i)
		}
	}
	if len(res.Gaps) != 0 {
		t.Errorf("Skip policy emitted gaps: %v", res.Gaps)
	}
	if len(res.Path) == 0 {
		t.Error("empty path")
	}
}

func TestBreakSplit(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	res, err := deadMatcher(net, r, BreakSplit, 2).Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != 1 {
		t.Fatalf("gaps = %v, want exactly one", res.Gaps)
	}
	g := res.Gaps[0]
	if g.From != 1 || g.To != 3 || g.Reason != GapNoCandidates {
		t.Errorf("gap = %+v, want {1 3 no-candidates}", g)
	}
}

func TestBreakBackToBackDead(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	res, err := deadMatcher(net, r, BreakSplit, 2, 3).Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != 1 || res.Gaps[0].From != 1 || res.Gaps[0].To != 4 {
		t.Errorf("gaps = %v, want one gap 1 -> 4", res.Gaps)
	}
}

func TestBreakLeadingTrailingDead(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	for _, policy := range []BreakPolicy{BreakSkip, BreakSplit} {
		res, err := deadMatcher(net, r, policy, 0, 4).Match(lineTraj())
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if !res.Dead[0] || !res.Dead[4] {
			t.Errorf("%v: endpoints not marked dead", policy)
		}
		// Leading/trailing dead points truncate the chain; they open no
		// gap because nothing is matched on their far side.
		if len(res.Gaps) != 0 {
			t.Errorf("%v: gaps = %v, want none for edge dead points", policy, res.Gaps)
		}
		if len(res.Path) == 0 {
			t.Errorf("%v: empty path", policy)
		}
	}
}

func TestAllDeadErrors(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	if _, err := deadMatcher(net, r, BreakSkip, 0, 1, 2, 3, 4).Match(ct); err == nil {
		t.Fatal("all-dead trajectory did not error")
	}
}

// TestBreakPoliciesIdenticalOnCleanInput locks the acceptance bar: on
// input with no dead points, all three policies produce byte-identical
// results.
func TestBreakPoliciesIdenticalOnCleanInput(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	base, err := deadMatcher(net, r, BreakError).Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []BreakPolicy{BreakSkip, BreakSplit} {
		res, err := deadMatcher(net, r, policy).Match(ct)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if res.Score != base.Score {
			t.Errorf("%v: score %v != %v", policy, res.Score, base.Score)
		}
		if len(res.Gaps) != 0 {
			t.Errorf("%v: unexpected gaps %v", policy, res.Gaps)
		}
		for i := range base.Matched {
			if res.Matched[i].Seg != base.Matched[i].Seg {
				t.Errorf("%v: point %d matched %d != %d", policy, i, res.Matched[i].Seg, base.Matched[i].Seg)
			}
		}
		if len(res.Path) != len(base.Path) {
			t.Errorf("%v: path length %d != %d", policy, len(res.Path), len(base.Path))
		}
	}
}

// TestViterbiBreakSplitGap forces a transition break (a jump beyond the
// router's range limit) and checks Split turns it into an explicit gap
// while Error/Skip still recover silently.
func TestViterbiBreakSplitGap(t *testing.T) {
	net, _ := gridWorld(t, 12, 3)
	r := roadnet.NewRouter(net, roadnet.WithMaxDist(250))
	ct := trajAlong(
		geo.Pt(50, 100), geo.Pt(150, 100),
		geo.Pt(950, 100), geo.Pt(1050, 100), // unreachable jump
	)
	for _, policy := range []BreakPolicy{BreakError, BreakSkip} {
		m := classicMatcher(net, r, 5, 0)
		m.Cfg.OnBreak = policy
		res, err := m.Match(ct)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if len(res.Gaps) != 0 {
			t.Errorf("%v: gaps = %v, want none", policy, res.Gaps)
		}
	}
	m := classicMatcher(net, r, 5, 0)
	m.Cfg.OnBreak = BreakSplit
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Gaps) != 1 || res.Gaps[0].Reason != GapViterbiBreak {
		t.Fatalf("gaps = %v, want one viterbi-break gap", res.Gaps)
	}
	if g := res.Gaps[0]; g.From != 1 || g.To != 2 {
		t.Errorf("gap = %+v, want {1 2 viterbi-break}", g)
	}
}

// fallbackReference is classicMatcher at the classical scale
// (ClassicalSigma, ClassicalBeta), the one the degraded fallback scores
// with.
func fallbackReference(net *roadnet.Network, r *roadnet.Router, k, shortcuts int) *Matcher {
	m := classicMatcher(net, r, k, shortcuts)
	m.Obs = &GaussianObservation{Net: net, Sigma: ClassicalSigma}
	m.Trans = &ExponentialTransition{Router: r, Beta: ClassicalBeta}
	return m
}

// TestDegradedObsFallback corrupts every observation score to NaN and
// checks the match equals the classical matcher run at the fallback's
// scale.
func TestDegradedObsFallback(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	want, err := fallbackReference(net, r, 5, 0).Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	m := fallbackReference(net, r, 5, 0)
	m.Obs = nanObs{m.Obs}
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Error("no degraded events counted")
	}
	for i := range want.Matched {
		if res.Matched[i].Seg != want.Matched[i].Seg {
			t.Errorf("point %d: matched %d, classical fallback reference %d", i, res.Matched[i].Seg, want.Matched[i].Seg)
		}
	}
}

// TestDegradedTransFallback corrupts every transition score to NaN and
// checks the match equals the classical matcher.
func TestDegradedTransFallback(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	want, err := fallbackReference(net, r, 5, 0).Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	m := fallbackReference(net, r, 5, 0)
	m.Trans = nanTrans{m.Trans}
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Error("no degraded events counted")
	}
	if res.Score != want.Score {
		t.Errorf("score %v != classical %v", res.Score, want.Score)
	}
	for i := range want.Matched {
		if res.Matched[i].Seg != want.Matched[i].Seg {
			t.Errorf("point %d: matched %d, want %d", i, res.Matched[i].Seg, want.Matched[i].Seg)
		}
	}
}

// nanScore corrupts the one-row observation score only: the layers'
// own candidates are healthy, a shortcut pseudo-candidate is not.
type nanScore struct{ ObservationModel }

func (nanScore) Score(traj.CellTrajectory, int, *Candidate) float64 { return math.NaN() }

// TestShortcutPseudoObsDegrades: a non-finite observation score for a
// shortcut's pseudo-candidate degrades to the Eq. 2 fallback and is
// counted, like a layer candidate's. Unguarded, the NaN made every such
// attempt lose its comparison silently: no shortcut, Degraded 0.
func TestShortcutPseudoObsDegrades(t *testing.T) {
	net, r, ct := noisyPointWorld(t)
	want, err := fallbackReference(net, r, 2, 1).Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	m := fallbackReference(net, r, 2, 1)
	m.Obs = nanScore{m.Obs}
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Error("no degraded events counted")
	}
	if !res.Skipped[2] || res.Score != want.Score || !reflect.DeepEqual(res.Matched, want.Matched) {
		t.Errorf("degraded match: skipped %v score %v, classical fallback reference skipped %v score %v",
			res.Skipped, res.Score, want.Skipped, want.Score)
	}
}

func TestMatchContextCancel(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := classicMatcher(net, r, 5, 0)
	_, err := m.MatchContext(ctx, lineTraj())
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestMatchSanitize(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	ct := lineTraj()
	ct[2].P.X = math.NaN()

	m := classicMatcher(net, r, 5, 0) // strict is the zero value
	if _, err := m.Match(ct); err == nil {
		t.Fatal("NaN coordinate under strict sanitization did not error")
	}

	m.Cfg.Sanitize = traj.SanitizeDrop
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sanitize.BadCoords != 1 {
		t.Errorf("BadCoords = %d, want 1", res.Sanitize.BadCoords)
	}
	if len(res.Matched) != len(ct)-1 {
		t.Errorf("matched %d points, want %d (indices refer to the sanitized trajectory)", len(res.Matched), len(ct)-1)
	}
}

// TestChaosFailpoints arms the matcher-level failpoints and checks the
// Skip policy absorbs injected dead candidate sets and NaN transition
// scores without errors or panics.
func TestChaosFailpoints(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	net, r := gridWorld(t, 6, 6)
	for _, spec := range []string{
		"hmm.candidates.empty:3",
		"hmm.trans.nan:2",
		"hmm.candidates.empty:4,hmm.trans.nan:3",
	} {
		faultinject.DisarmAll()
		if err := faultinject.Arm(spec); err != nil {
			t.Fatal(err)
		}
		m := classicMatcher(net, r, 5, 1)
		m.Cfg.OnBreak = BreakSkip
		for trial := 0; trial < 4; trial++ {
			res, err := m.Match(lineTraj())
			if err != nil {
				t.Fatalf("spec %q: %v", spec, err)
			}
			if len(res.Matched) != 5 {
				t.Fatalf("spec %q: matched %d points", spec, len(res.Matched))
			}
		}
	}
	faultinject.DisarmAll()
	// Disarmed again: identical to an unarmed run.
	m := classicMatcher(net, r, 5, 0)
	base, err := m.Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	if base.Degraded != 0 {
		t.Errorf("disarmed run counted %d degraded events", base.Degraded)
	}
}

func TestBreakPolicyParseRoundTrip(t *testing.T) {
	for _, p := range []BreakPolicy{BreakError, BreakSkip, BreakSplit} {
		got, err := ParseBreakPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v, err %v", p, got, err)
		}
	}
	if _, err := ParseBreakPolicy("bogus"); err == nil {
		t.Error("bogus policy accepted")
	}
}
