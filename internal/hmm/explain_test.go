package hmm

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func explainMatcher(t *testing.T) (*Matcher, *Result) {
	t.Helper()
	net, r := gridWorld(t, 6, 3)
	m := classicMatcher(net, r, 8, 0)
	m.Cfg.Explain = true
	res, err := m.Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

func TestExplainDisabledByDefault(t *testing.T) {
	net, r := gridWorld(t, 6, 3)
	res, err := classicMatcher(net, r, 8, 0).Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain != nil {
		t.Fatal("Explain populated without Config.Explain")
	}
}

func TestExplainArtifact(t *testing.T) {
	_, res := explainMatcher(t)
	ex := res.Explain
	if ex == nil {
		t.Fatal("no Explain artifact")
	}
	if ex.TopK != 5 || ex.MarginThreshold != 0.05 {
		t.Errorf("defaults top_k=%d threshold=%g, want 5/0.05", ex.TopK, ex.MarginThreshold)
	}
	if len(ex.Points) != len(res.Matched) {
		t.Fatalf("%d explain points for %d matched points", len(ex.Points), len(res.Matched))
	}
	low := 0
	for i, pt := range ex.Points {
		if pt.Index != i {
			t.Errorf("point %d has index %d", i, pt.Index)
		}
		if pt.Dead {
			t.Fatalf("point %d marked dead on a clean match", i)
		}
		if pt.Chosen == nil {
			t.Fatalf("point %d has no choice", i)
		}
		if pt.Chosen.Seg != int(res.Matched[i].Seg) {
			t.Errorf("point %d chosen seg %d != matched seg %d", i, pt.Chosen.Seg, res.Matched[i].Seg)
		}
		if len(pt.Candidates) == 0 || len(pt.Candidates) > ex.TopK+1 {
			t.Errorf("point %d has %d candidates, want 1..%d", i, len(pt.Candidates), ex.TopK+1)
		}
		chosenFlags := 0
		for _, c := range pt.Candidates {
			if c.Chosen {
				chosenFlags++
				if c.Seg != pt.Chosen.Seg {
					t.Errorf("point %d chosen-flag on seg %d, choice says %d", i, c.Seg, pt.Chosen.Seg)
				}
			}
			if c.ClassicalObs <= 0 || c.ClassicalObs > 1 {
				t.Errorf("point %d seg %d classical obs %g outside (0,1]", i, c.Seg, c.ClassicalObs)
			}
			if c.Fallback {
				t.Errorf("point %d seg %d flagged fallback with a finite model", i, c.Seg)
			}
			if math.IsNaN(c.Obs) || math.IsInf(c.Obs, 0) {
				t.Errorf("point %d seg %d non-finite obs %g", i, c.Seg, c.Obs)
			}
		}
		if chosenFlags != 1 {
			t.Errorf("point %d has %d chosen flags, want exactly 1", i, chosenFlags)
		}
		ch := pt.Chosen
		if math.Abs(ch.Margin) > explainMarginCap {
			t.Errorf("point %d margin %g beyond cap", i, ch.Margin)
		}
		if ch.LowMargin {
			low++
			if ch.Margin >= ex.MarginThreshold {
				t.Errorf("point %d flagged low-margin at %g >= %g", i, ch.Margin, ex.MarginThreshold)
			}
		}
		if i == 0 {
			if ch.PrevSeg != -1 {
				t.Errorf("first point has prev seg %d, want -1", ch.PrevSeg)
			}
			continue
		}
		// Continuous chain: the backpointer must name the previous
		// matched candidate and carry its transition evidence.
		if ch.PrevSeg != int(res.Matched[i-1].Seg) {
			t.Errorf("point %d prev seg %d != matched[%d] seg %d",
				i, ch.PrevSeg, i-1, res.Matched[i-1].Seg)
		}
		if ch.TransScore < 0 {
			t.Errorf("point %d trans score %g < 0", i, ch.TransScore)
		}
		if len(ch.Route) == 0 {
			t.Errorf("point %d transition carries no route", i)
		}
	}
	if low != ex.LowMarginDecisions {
		t.Errorf("LowMarginDecisions %d, counted %d flags", ex.LowMarginDecisions, low)
	}
}

func TestExplainTopKBound(t *testing.T) {
	net, r := gridWorld(t, 6, 3)
	m := classicMatcher(net, r, 10, 0)
	m.Cfg.Explain = true
	m.Cfg.ExplainTopK = 2
	res, err := m.Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	if res.Explain.TopK != 2 {
		t.Fatalf("top_k = %d, want 2", res.Explain.TopK)
	}
	for i, pt := range res.Explain.Points {
		// The chosen candidate is always included, so 3 is the max.
		if len(pt.Candidates) > 3 {
			t.Errorf("point %d has %d candidates with top_k 2", i, len(pt.Candidates))
		}
	}
}

// Dead points under BreakSkip carry no breakdown, and the chain restart
// after the gap reports PrevSeg -1.
func TestExplainDeadPoints(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	m := deadMatcher(net, r, BreakSkip, 2)
	m.Cfg.Explain = true
	res, err := m.Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if ex == nil {
		t.Fatal("no Explain artifact")
	}
	if !ex.Points[2].Dead || ex.Points[2].Chosen != nil || len(ex.Points[2].Candidates) != 0 {
		t.Errorf("dead point explained as %+v", ex.Points[2])
	}
	if ex.Points[1].Chosen == nil || ex.Points[3].Chosen == nil || ex.Points[4].Chosen == nil {
		t.Fatal("alive neighbors unexplained")
	}
	// The chain restarts on the far side of the gap (steps stay nil
	// across it), so the restart point reports no predecessor ...
	if got := ex.Points[3].Chosen.PrevSeg; got != -1 {
		t.Errorf("chain-restart point 3 prev seg %d, want -1", got)
	}
	// ... and the transition evidence resumes at the next point.
	if got := ex.Points[4].Chosen.PrevSeg; got != int(res.Matched[3].Seg) {
		t.Errorf("point 4 prev seg %d, want matched[3] seg %d", got, res.Matched[3].Seg)
	}
}

// A NaN-scoring observation model degrades every candidate to the
// classical fallback; the breakdown must say so.
func TestExplainFallbackFlag(t *testing.T) {
	net, r := gridWorld(t, 6, 3)
	m := classicMatcher(net, r, 5, 0)
	m.Obs = nanObs{m.Obs}
	m.Cfg.Explain = true
	res, err := m.Match(lineTraj())
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Fatal("NaN observation model did not degrade")
	}
	for i, pt := range res.Explain.Points {
		for _, c := range pt.Candidates {
			if !c.Fallback {
				t.Errorf("point %d seg %d not flagged fallback under a NaN model", i, c.Seg)
			}
			if c.Obs != c.ClassicalObs {
				t.Errorf("point %d seg %d fallback obs %g != classical %g", i, c.Seg, c.Obs, c.ClassicalObs)
			}
		}
	}
}

// Explain must survive shortcut pseudo-candidates: the skipped point's
// choice reports the projected road with the Pseudo flag, and the
// displaced step-table entries do not panic the assembly.
func TestExplainWithShortcuts(t *testing.T) {
	// The Observation-1 scenario from TestShortcutSkipsNoisyPoint: a
	// main street plus a disconnected side street that captures the
	// noisy middle point's whole candidate set.
	var b roadnet.Builder
	var main []roadnet.NodeID
	for i := 0; i <= 8; i++ {
		main = append(main, b.AddNode(geo.Pt(float64(i)*100, 300)))
	}
	for i := 0; i+1 <= 8; i++ {
		if _, _, err := b.AddTwoWay(main[i], main[i+1], roadnet.Local); err != nil {
			t.Fatal(err)
		}
	}
	s0 := b.AddNode(geo.Pt(150, 700))
	s1 := b.AddNode(geo.Pt(350, 700))
	if _, _, err := b.AddTwoWay(s0, s1, roadnet.Local); err != nil {
		t.Fatal(err)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := roadnet.NewRouter(net)
	ct := trajAlong(
		geo.Pt(30, 310), geo.Pt(130, 295), geo.Pt(250, 690),
		geo.Pt(370, 305), geo.Pt(480, 300), geo.Pt(600, 295),
	)
	m := classicMatcher(net, r, 2, 1)
	m.Cfg.Explain = true
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped[2] {
		t.Fatal("scenario regressed: noisy point not skipped")
	}
	ex := res.Explain
	if len(ex.Points) != len(ct) {
		t.Fatalf("%d explain points for %d inputs", len(ex.Points), len(ct))
	}
	if ch := ex.Points[2].Chosen; ch == nil || !ch.Pseudo {
		t.Errorf("skipped point's choice = %+v, want Pseudo", ch)
	}
	if ch := ex.Points[2].Chosen; ch != nil && ch.Seg != int(res.Matched[2].Seg) {
		t.Errorf("skipped point chosen seg %d != matched %d", ch.Seg, res.Matched[2].Seg)
	}
	// Downstream of the pseudo-candidate the chain continues; its
	// successor names the pseudo road as predecessor.
	if ch := ex.Points[3].Chosen; ch == nil || ch.PrevSeg != int(res.Matched[2].Seg) {
		t.Errorf("successor of pseudo-candidate reports prev %+v", ch)
	}
}

func TestScoreMargin(t *testing.T) {
	sum := &Matcher{Cfg: Config{Scoring: ScoreSum}}
	logp := &Matcher{Cfg: Config{Scoring: ScoreLogProd}}
	cases := []struct {
		name      string
		m         *Matcher
		w, r      float64
		hasRunner bool
		want      float64
	}{
		{"unopposed", sum, 0.5, 0, false, explainMarginCap},
		{"sum ratio", sum, 0.6, 0.2, true, math.Log(3)},
		{"sum zero winner", sum, 0, 0.2, true, 0},
		{"sum zero runner", sum, 0.5, 0, true, explainMarginCap},
		{"sum negative runner", sum, 0.5, -1, true, explainMarginCap},
		{"logprod diff", logp, -3, -5, true, 2},
		{"logprod clamp", logp, 0, -1000, true, explainMarginCap},
		{"logprod clamp neg", logp, -1000, 0, true, -explainMarginCap},
	}
	for _, c := range cases {
		if got := c.m.scoreMargin(c.w, c.r, c.hasRunner); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: margin(%g,%g) = %g, want %g", c.name, c.w, c.r, got, c.want)
		}
	}
	if got := sum.scoreMargin(math.NaN(), 0.5, true); got != 0 {
		t.Errorf("NaN winner margin = %g, want 0", got)
	}
}

// With explain disabled, the memoized per-step scoring stays
// allocation-free (the hot path the acceptance gate pins).
func TestStepScoreNoAllocs(t *testing.T) {
	net, r := gridWorld(t, 6, 6)
	m := classicMatcher(net, r, 5, 0)
	ct := lineTraj()
	from := m.Obs.Candidates(ct, 0, 5)
	to := m.Obs.Candidates(ct, 1, 5)
	if len(from) == 0 || len(to) == 0 {
		t.Fatal("no candidates")
	}
	// Warm the router's route cache: the steady-state hot path is a
	// cache hit.
	if _, ok := m.stepScore(ct, 1, &from[0], &to[0], nil); !ok {
		t.Fatal("transition unreachable")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m.stepScore(ct, 1, &from[0], &to[0], nil)
	})
	if allocs != 0 {
		t.Errorf("stepScore allocates %.1f/op on the warm path, want 0", allocs)
	}
}
