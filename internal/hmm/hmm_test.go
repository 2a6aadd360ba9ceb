package hmm

import (
	"math"
	"testing"

	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// gridWorld builds a w×h 100 m lattice network plus a router.
func gridWorld(t testing.TB, w, h int) (*roadnet.Network, *roadnet.Router) {
	t.Helper()
	var b roadnet.Builder
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			b.AddNode(geo.Pt(float64(i)*100, float64(j)*100))
		}
	}
	id := func(i, j int) roadnet.NodeID { return roadnet.NodeID(j*w + i) }
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			if i+1 < w {
				if _, _, err := b.AddTwoWay(id(i, j), id(i+1, j), roadnet.Local); err != nil {
					t.Fatal(err)
				}
			}
			if j+1 < h {
				if _, _, err := b.AddTwoWay(id(i, j), id(i, j+1), roadnet.Local); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	n, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return n, roadnet.NewRouter(n)
}

func classicMatcher(net *roadnet.Network, r *roadnet.Router, k, shortcuts int) *Matcher {
	return &Matcher{
		Net:    net,
		Router: r,
		Obs:    &GaussianObservation{Net: net, Sigma: 100},
		Trans:  &ExponentialTransition{Router: r, Beta: 200},
		Cfg:    Config{K: k, Shortcuts: shortcuts},
	}
}

// trajAlong builds a cellular trajectory from raw positions at 60 s
// intervals.
func trajAlong(pts ...geo.Point) traj.CellTrajectory {
	ct := make(traj.CellTrajectory, len(pts))
	for i, p := range pts {
		ct[i] = traj.CellPoint{Tower: -1, P: p, T: float64(i) * 60}
	}
	return ct
}

func TestMatchEmptyTrajectory(t *testing.T) {
	net, r := gridWorld(t, 3, 3)
	m := classicMatcher(net, r, 5, 0)
	if _, err := m.Match(nil); err == nil {
		t.Error("empty trajectory did not error")
	}
}

func TestMatchStraightLine(t *testing.T) {
	net, r := gridWorld(t, 6, 3)
	m := classicMatcher(net, r, 8, 0)
	// Points along the y=100 row street with small offsets.
	ct := trajAlong(
		geo.Pt(20, 108), geo.Pt(150, 93), geo.Pt(290, 110), geo.Pt(420, 95), geo.Pt(490, 102),
	)
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != len(ct) {
		t.Fatalf("Matched len = %d", len(res.Matched))
	}
	// Every matched candidate lies on the y=100 row.
	for i, c := range res.Matched {
		seg := net.Segment(c.Seg)
		mid := seg.Midpoint()
		if math.Abs(mid.Y-100) > 1 {
			t.Errorf("point %d matched to segment at %v, want the y=100 street", i, mid)
		}
	}
	// The expanded path is contiguous.
	for i := 1; i < len(res.Path); i++ {
		a, b := net.Segment(res.Path[i-1]), net.Segment(res.Path[i])
		if a.To != b.From && a.From != b.From && a.To != b.To {
			// Allow the same-segment dedup; adjacency via shared node.
			t.Errorf("path discontinuity between %d and %d", res.Path[i-1], res.Path[i])
		}
	}
	// Path heads east: the first matched candidate is west of the last.
	if res.Matched[0].Proj.X >= res.Matched[4].Proj.X {
		t.Error("path does not progress eastward")
	}
}

func TestMatchPrefersSmootherPath(t *testing.T) {
	// A noisy middle point pulls the naive nearest match off the row;
	// the transition term must keep the path on the straight street.
	net, r := gridWorld(t, 6, 5)
	m := classicMatcher(net, r, 10, 0)
	ct := trajAlong(
		geo.Pt(20, 205), geo.Pt(160, 230), geo.Pt(250, 280), geo.Pt(380, 210), geo.Pt(480, 200),
	)
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	// The route should stay on y=200 (or at worst adjacent), not detour
	// up to y=300.
	for _, sid := range res.Path {
		if mid := net.Segment(sid).Midpoint(); mid.Y > 300 {
			t.Errorf("path detoured to %v", mid)
		}
	}
}

// noisyPointWorld is the paper's Observation 1 scenario: a main street,
// a side street no route reaches, and a track along the main street
// whose third point is thrown beside the side street.
func noisyPointWorld(t testing.TB) (*roadnet.Network, *roadnet.Router, traj.CellTrajectory) {
	t.Helper()
	var b roadnet.Builder
	// Main street: nodes along y=300 every 100 m.
	var main []roadnet.NodeID
	for i := 0; i <= 8; i++ {
		main = append(main, b.AddNode(geo.Pt(float64(i)*100, 300)))
	}
	for i := 0; i+1 <= 8; i++ {
		if _, _, err := b.AddTwoWay(main[i], main[i+1], roadnet.Local); err != nil {
			t.Fatal(err)
		}
	}
	// Isolated side street near y=700 (not connected to the main one).
	s0 := b.AddNode(geo.Pt(150, 700))
	s1 := b.AddNode(geo.Pt(350, 700))
	if _, _, err := b.AddTwoWay(s0, s1, roadnet.Local); err != nil {
		t.Fatal(err)
	}
	net, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// The middle point's error puts it next to the isolated street, so
	// with K=2 its candidates are both on it.
	return net, roadnet.NewRouter(net), trajAlong(
		geo.Pt(30, 310), geo.Pt(130, 295), geo.Pt(250, 690), geo.Pt(370, 305), geo.Pt(480, 300),
		geo.Pt(600, 295),
	)
}

// TestShortcutSkipsNoisyPoint builds the paper's Observation 1 scenario
// directly: a point with such a high positioning error that its entire
// candidate set lies on a disconnected side street (an unqualified
// candidate set). Ordinary Viterbi is forced through it; the shortcut
// restores the projected road on the true street and skips the point.
func TestShortcutSkipsNoisyPoint(t *testing.T) {
	net, r, ct := noisyPointWorld(t)
	base := classicMatcher(net, r, 2, 0)
	with := classicMatcher(net, r, 2, 1)

	resBase, err := base.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	resWith, err := with.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	onIsolated := func(c Candidate) bool {
		return net.Segment(c.Seg).Midpoint().Y > 500
	}
	// Without shortcuts, the noisy point is matched to the unreachable
	// side street.
	if !onIsolated(resBase.Matched[2]) {
		t.Fatalf("baseline did not match the noisy point to the side street")
	}
	// With shortcuts, the pseudo-candidate on the main street replaces
	// it and the point is marked skipped.
	if onIsolated(resWith.Matched[2]) {
		t.Errorf("shortcut run still matched the side street")
	}
	if !resWith.Skipped[2] {
		t.Error("noisy point not marked skipped")
	}
	// The shortcut path never touches the isolated street.
	for _, sid := range resWith.Path {
		if net.Segment(sid).Midpoint().Y > 500 {
			t.Errorf("shortcut path includes the isolated street")
		}
	}
	// Shortcut run scores at least as high.
	if resWith.Score < resBase.Score {
		t.Errorf("shortcut lowered score: %v < %v", resWith.Score, resBase.Score)
	}
}

func TestGaussianObservation(t *testing.T) {
	net, _ := gridWorld(t, 3, 3)
	g := &GaussianObservation{Net: net, Sigma: 100}
	ct := trajAlong(geo.Pt(50, 10))
	cands := g.Candidates(ct, 0, 4)
	if len(cands) != 4 {
		t.Fatalf("got %d candidates", len(cands))
	}
	// Scores descend with distance.
	for i := 1; i < len(cands); i++ {
		if cands[i-1].Dist > cands[i].Dist+1e-9 {
			t.Error("candidates not sorted by distance")
		}
		if cands[i-1].Obs < cands[i].Obs-1e-12 {
			t.Error("observation scores not descending")
		}
	}
	// The nearest candidate is the y=0 street under the point.
	if cands[0].Dist > 10+1e-9 {
		t.Errorf("nearest candidate at distance %v", cands[0].Dist)
	}
	// Zero sigma falls back to a sane default rather than NaN.
	g0 := &GaussianObservation{Net: net}
	if s := g0.Score(ct, 0, &cands[0]); math.IsNaN(s) || s <= 0 {
		t.Errorf("default-sigma score = %v", s)
	}
}

func TestExponentialTransition(t *testing.T) {
	net, r := gridWorld(t, 4, 1)
	e := &ExponentialTransition{Router: r, Beta: 100}
	g := &GaussianObservation{Net: net, Sigma: 100}
	ct := trajAlong(geo.Pt(50, 5), geo.Pt(250, 5))
	a := g.Candidates(ct, 0, 1)[0]
	b := g.Candidates(ct, 1, 1)[0]
	s, ok := e.Score(ct, 1, &a, &b)
	if !ok {
		t.Fatal("transition not ok")
	}
	// Straight distance 200, route distance 200: near-perfect score.
	if s < 0.9 {
		t.Errorf("aligned transition score = %v", s)
	}
	// A candidate pair demanding a huge detour scores lower.
	far := a
	far.Frac = 0.99
	s2, ok := e.Score(ct, 1, &b, &far) // backwards movement
	if ok && s2 > s {
		t.Errorf("detour scored higher: %v > %v", s2, s)
	}
}

func TestMatchResultCandidatesExposed(t *testing.T) {
	net, r := gridWorld(t, 4, 4)
	m := classicMatcher(net, r, 5, 1)
	ct := trajAlong(geo.Pt(10, 105), geo.Pt(210, 95), geo.Pt(310, 105))
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 3 {
		t.Fatalf("Candidates layers = %d", len(res.Candidates))
	}
	for i, layer := range res.Candidates {
		if len(layer) == 0 || len(layer) > 5 {
			t.Errorf("layer %d has %d candidates", i, len(layer))
		}
		// No pseudo-candidates leak into the exposed sets.
		for _, c := range layer {
			if c.Pseudo {
				t.Error("pseudo candidate in exposed set")
			}
		}
	}
}

func TestMatchSinglePoint(t *testing.T) {
	net, r := gridWorld(t, 3, 3)
	m := classicMatcher(net, r, 5, 1)
	ct := trajAlong(geo.Pt(120, 95))
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matched) != 1 || len(res.Path) != 1 {
		t.Fatalf("single-point result: %d matched, path %v", len(res.Matched), res.Path)
	}
}

func TestLogSpaceScoring(t *testing.T) {
	net, r := gridWorld(t, 6, 3)
	m := classicMatcher(net, r, 8, 0)
	m.Cfg.Scoring = ScoreLogProd
	ct := trajAlong(
		geo.Pt(20, 108), geo.Pt(150, 93), geo.Pt(290, 110), geo.Pt(420, 95),
	)
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	// Log-product scores are non-positive sums of logs.
	if res.Score > 0 {
		t.Errorf("log-space score = %v, want <= 0", res.Score)
	}
	// The easy straight-line case matches the same street either way.
	m2 := classicMatcher(net, r, 8, 0)
	res2, err := m2.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Path) == 0 || len(res2.Path) == 0 {
		t.Fatal("empty paths")
	}
	for i, c := range res.Matched {
		if net.Segment(c.Seg).Midpoint().Y != net.Segment(res2.Matched[i].Seg).Midpoint().Y {
			t.Errorf("point %d: scoring modes diverge on the trivial case", i)
		}
	}
	// accum floors zero and tiny probabilities.
	if got := m.accum(0); got != -20 {
		t.Errorf("accum(0) = %v, want -20", got)
	}
	if got := m.accum(1e-300); got != -20 {
		t.Errorf("accum(tiny) = %v, want -20", got)
	}
}

func TestMatchTraceCollected(t *testing.T) {
	net, r := gridWorld(t, 8, 3)
	m := classicMatcher(net, r, 6, 1)
	m.Cfg.Trace = true
	ct := trajAlong(
		geo.Pt(20, 108), geo.Pt(150, 93), geo.Pt(290, 110),
		geo.Pt(420, 95), geo.Pt(550, 104),
	)
	res, err := m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr == nil {
		t.Fatal("Cfg.Trace set but Result.Trace is nil")
	}
	if len(tr.Points) != len(ct) {
		t.Fatalf("trace has %d points for %d-point trajectory", len(tr.Points), len(ct))
	}
	for i, pt := range tr.Points {
		if pt.Candidates <= 0 {
			t.Errorf("point %d: candidates = %d", i, pt.Candidates)
		}
		if pt.BestObs <= 0 || pt.BestObs < pt.MeanObs {
			t.Errorf("point %d: best %v < mean %v", i, pt.BestObs, pt.MeanObs)
		}
		if i > 0 && pt.TransEvaluated <= 0 {
			t.Errorf("point %d: no transitions evaluated", i)
		}
		if pt.TransReachable > pt.TransEvaluated {
			t.Errorf("point %d: reachable %d > evaluated %d", i, pt.TransReachable, pt.TransEvaluated)
		}
	}
	if tr.TotalCandidates() <= 0 {
		t.Error("TotalCandidates = 0")
	}
	if tr.Stages.TotalS <= 0 {
		t.Errorf("stage total = %v", tr.Stages.TotalS)
	}
	sumStages := tr.Stages.CandidatesS + tr.Stages.ViterbiS + tr.Stages.ShortcutsS +
		tr.Stages.BacktrackS + tr.Stages.ExpandS
	if sumStages > tr.Stages.TotalS {
		t.Errorf("stage sum %v exceeds total %v", sumStages, tr.Stages.TotalS)
	}
	if tr.ShortcutAdoptions != res.ShortcutAdoptions {
		t.Errorf("trace adoptions %d != result %d", tr.ShortcutAdoptions, res.ShortcutAdoptions)
	}
	if tr.ShortcutAttempts < tr.ShortcutAdoptions {
		t.Errorf("attempts %d < adoptions %d", tr.ShortcutAttempts, tr.ShortcutAdoptions)
	}

	// Tracing off: no trace allocated.
	m.Cfg.Trace = false
	res, err = m.Match(ct)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("trace collected with Cfg.Trace off")
	}
}

func TestMatchCountersRecorded(t *testing.T) {
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	matches := obs.Default.Counter("hmm.matches")
	cands := obs.Default.Counter("hmm.candidates")
	before, candsBefore := matches.Value(), cands.Value()

	net, r := gridWorld(t, 6, 3)
	m := classicMatcher(net, r, 5, 0)
	ct := trajAlong(geo.Pt(20, 100), geo.Pt(150, 100), geo.Pt(290, 100))
	if _, err := m.Match(ct); err != nil {
		t.Fatal(err)
	}
	if got := matches.Value() - before; got != 1 {
		t.Errorf("hmm.matches delta = %d, want 1", got)
	}
	if got := cands.Value() - candsBefore; got <= 0 {
		t.Errorf("hmm.candidates delta = %d, want > 0", got)
	}
}

// TestShortcutCountersRecorded: a match flushes how many shortcut
// attempts it made and how many of them had to call the models — here
// the ones around the noisy point, whose projected road its layer does
// not hold; the rest were read from the step tables.
func TestShortcutCountersRecorded(t *testing.T) {
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	attempts := obs.Default.Counter("hmm.shortcut.attempts")
	scored := obs.Default.Counter("hmm.shortcut.scored")
	attempts0, scored0 := attempts.Value(), scored.Value()

	net, r, ct := noisyPointWorld(t)
	if _, err := classicMatcher(net, r, 2, 1).Match(ct); err != nil {
		t.Fatal(err)
	}
	a, s := attempts.Value()-attempts0, scored.Value()-scored0
	if s <= 0 || s >= a {
		t.Errorf("hmm.shortcut.scored delta = %d of %d attempts, want some but not all", s, a)
	}
}
