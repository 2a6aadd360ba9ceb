package core

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Eq. 10's first layer is factored over its [segment ; read-out] input
// and pushed through the Eq. 9 attention on the inference path
// (session.roadProbRows). These tests hold the kernel to the written-out
// equations, pin its call shapes to each other bit for bit, and check
// that the per-segment tables follow the weights.

// refRoadProbs is the written-out reference: for each segment, Eq. 9 as
// the tape TransAtt.Forward (tapeAttention) with the segment embedding
// (its row of ref, refEmbeddings) as query and the point embeddings as
// keys and values, Eq. 10 as TransMLP.Apply over the explicit
// [segment embedding ; x_l] row. No tables, no key cache; it shares no
// code with the kernel beyond the nn layers themselves.
func refRoadProbs(m *Model, ref, emb *nn.Mat, segs []roadnet.SegmentID) []float64 {
	d := m.Cfg.Dim
	out := make([]float64, len(segs))
	for r, sid := range segs {
		seg := &nn.Mat{R: 1, C: d, W: ref.Row(m.Graph.SegNode(sid))}
		xl := tapeAttention(m.TransAtt, seg, emb)
		feat := nn.NewMat(1, 2*d)
		copy(feat.W[:d], seg.W)
		copy(feat.W[d:], xl.W)
		out[r] = nn.Softmax(m.TransMLP.Apply(feat).W)[1]
	}
	return out
}

// savedAndLoaded round-trips m's weights through Save into a model
// built afresh over the same dataset and configuration.
func savedAndLoaded(t *testing.T, d *traj.Dataset, cfg Config, m *Model) *Model {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	return m2
}

// allSegs lists every segment of the model's network.
func allSegs(m *Model) []roadnet.SegmentID {
	segs := make([]roadnet.SegmentID, m.Net.NumSegments())
	for i := range segs {
		segs[i] = roadnet.SegmentID(i)
	}
	return segs
}

// kernelRoadProbs scores segs through the kernel in one call.
func kernelRoadProbs(s *session, segs []roadnet.SegmentID) []float64 {
	s.ensureKeys()
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	probs := make([]float64, len(segs))
	s.roadProbRows(ws, segs, probs)
	return probs
}

func checkAgainstRef(t *testing.T, what string, m *Model, ref *nn.Mat, s *session, segs []roadnet.SegmentID) {
	t.Helper()
	got := kernelRoadProbs(s, segs)
	want := refRoadProbs(m, ref, s.rows(s.embW), segs)
	for r, sid := range segs {
		if math.Abs(got[r]-want[r]) > batchTol {
			t.Fatalf("%s seg %d: kernel %v vs reference %v", what, sid, got[r], want[r])
		}
	}
}

// TestRoadProbMatchesReference: the kernel equals the reference on every
// segment of the fixture network, for a session filled whole and for a
// streaming one after each push (keys and transVal grown a point at a
// time).
func TestRoadProbMatchesReference(t *testing.T) {
	m, whole, ct := trainedModel(t)
	segs := allSegs(m)
	ref := refEmbeddings(m)
	checkAgainstRef(t, "batch", m, ref, whole, segs)
	ss := &session{m: m}
	for i := range ct {
		ss.extend(ct[:i+1])
		checkAgainstRef(t, "stream", m, ref, ss, segs)
		if ss.keysN != i+1 || len(ss.transVal) != (i+1)*m.Cfg.Dim {
			t.Fatalf("push %d: keys over %d points, transVal %d values", i, ss.keysN, len(ss.transVal))
		}
	}
}

// TestRoadProbPathsBitEqual: Eq. 9–10 read only the raw point
// embeddings, so a session filled whole and one extended causally over
// the same points must score every segment identically, whichever shape
// the call takes: all rows at once, the step fill over routes, or the
// one-row roadProb behind the TransScore oracle.
func TestRoadProbPathsBitEqual(t *testing.T) {
	m, whole, ct := trainedModel(t)
	segs := allSegs(m)
	want := kernelRoadProbs(whole, segs)

	ss := &session{m: m}
	for i := range ct {
		ss.extend(ct[:i+1])
		ss.ensureKeys()
	}
	for r, p := range kernelRoadProbs(ss, segs) {
		if p != want[r] {
			t.Fatalf("seg %d: stream %v vs batch %v", segs[r], p, want[r])
		}
	}

	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	oneRow := m.newSession(ct)
	for r, sid := range segs {
		if p := oneRow.roadProb(ws, sid); p != want[r] {
			t.Fatalf("seg %d: one-row %v vs all rows %v", sid, p, want[r])
		}
	}

	// The step fill, driven by a real step under a bound tight enough to
	// cut some pairs off: afterwards the table holds exactly the segments
	// of the reachable pairs' routes — a segment that lies only on routes
	// the bound cut is never filled — each at the kernel's value.
	loose := m.Router
	defer func() { m.Router = loose }()
	m.Router = roadnet.NewRouter(m.Net, roadnet.WithMaxDist(900))
	fill := m.newSession(ct)
	from := fill.Candidates(ct, 0, m.Cfg.K)
	to := fill.Candidates(ct, 1, m.Cfg.K)
	out := make([]float64, len(from)*len(to))
	fill.ScoreBatch(ct, 1, from, to, out)
	onReachable := make(map[roadnet.SegmentID]bool)
	cut, cutOnly := 0, 0
	for a := range from {
		for b := range to {
			if route, ok := m.Router.RouteBetween(from[a].Pos(), to[b].Pos()); ok {
				for _, sid := range route.Segs {
					onReachable[sid] = true
				}
			} else {
				cut++
			}
		}
	}
	for a := range from {
		for b := range to {
			if _, ok := m.Router.RouteBetween(from[a].Pos(), to[b].Pos()); ok {
				continue
			}
			if route, ok := loose.RouteBetween(from[a].Pos(), to[b].Pos()); ok {
				for _, sid := range route.Segs {
					if !onReachable[sid] {
						cutOnly++
					}
				}
			}
		}
	}
	if cut == 0 || cut == len(out) || cutOnly == 0 {
		t.Fatalf("fixture step: %d of %d pairs cut, %d segments on cut routes only", cut, len(out), cutOnly)
	}
	tab := fill.roadP
	for r, sid := range segs {
		cached := tab.stamp[sid] >= tab.base
		if cached != onReachable[sid] {
			t.Fatalf("seg %d: cached = %v, on a reachable route = %v", sid, cached, onReachable[sid])
		}
		if cached && tab.p[sid] != want[r] {
			t.Fatalf("seg %d: step fill %v vs all rows %v", sid, tab.p[sid], want[r])
		}
	}
}

// checkTransTables recomputes transSeg[s] = h(s)·W1_seg + b1 and
// transQ[s] = w_v[:h]·tanh(W_q·h(s)) from scratch with plain loops, h(s)
// segment s's row of refEmbeddings over src (the model m was frozen from
// that still holds its encoder: m itself, unless loaded), and compares
// them to the frozen tables.
func checkTransTables(t *testing.T, m, src *Model, when string) {
	t.Helper()
	d, h := m.Cfg.Dim, attDim(m.Cfg.Dim)
	l1 := m.TransMLP.Layers[0]
	nSeg := m.Net.NumSegments()
	if m.transSeg == nil || m.transSeg.R != nSeg || m.transSeg.C != d || len(m.transQ) != nSeg {
		t.Fatalf("%s: tables missing or misshapen: transSeg %+v, %d transQ", when, m.transSeg, len(m.transQ))
	}
	ref := refEmbeddings(src)
	for s := 0; s < nSeg; s++ {
		emb := ref.Row(m.Graph.SegNode(roadnet.SegmentID(s)))
		for j := 0; j < d; j++ {
			sum := 0.0
			for k := 0; k < d; k++ {
				sum += emb[k] * l1.W.W.At(k, j)
			}
			sum += l1.B.W.W[j]
			if got := m.transSeg.At(s, j); math.Abs(got-sum) > batchTol {
				t.Fatalf("%s: transSeg[%d][%d] = %v, recomputed %v", when, s, j, got, sum)
			}
		}
		qdot := 0.0
		for j := 0; j < h; j++ {
			proj := 0.0
			for k := 0; k < d; k++ {
				proj += emb[k] * m.TransAtt.Wq.W.At(k, j)
			}
			qdot += math.Tanh(proj) * m.TransAtt.Wv.W.W[j]
		}
		if math.Abs(m.transQ[s]-qdot) > batchTol {
			t.Fatalf("%s: transQ[%d] = %v, recomputed %v", when, s, m.transQ[s], qdot)
		}
	}
}

// TestTransTablesFollowWeights: the tables are rebuilt wherever the
// weights they derive from change hands — Train, Load, and an explicit
// RefreshEmbeddings after a weight edit to the trained model (a loaded
// one is inference-only) — and an edit to either learner shows in the
// scores once refreshed. A model that was only loaded holds the trained
// model's tables and tower rows bit for bit, and no gradient matrices.
func TestTransTablesFollowWeights(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTransTables(t, m, m, "after Train")

	m2 := savedAndLoaded(t, d, cfg, m)
	checkTransTables(t, m2, m, "after Load")
	if !slices.Equal(bitsOf(m2.transSeg.W), bitsOf(m.transSeg.W)) || !slices.Equal(bitsOf(m2.transQ), bitsOf(m.transQ)) ||
		!slices.Equal(bitsOf(m2.emb.W), bitsOf(m.emb.W)) {
		t.Fatal("loaded tables or tower rows differ from the trained model's")
	}
	for _, p := range m2.AllParams() {
		if p.Grad != nil {
			t.Errorf("loaded model holds a gradient matrix for %s", p.Name)
		}
	}

	ct := d.TestTrips()[0].Cell
	segs := allSegs(m)
	scores := func() []float64 { return kernelRoadProbs(m.newSession(ct), segs) }
	before := scores()
	// Row 0 of W1 is in the segment half (rows < dim), so only transSeg
	// carries this edit into the scores.
	m.TransMLP.Layers[0].W.W.W[0] += 0.5
	m.RefreshEmbeddings()
	checkTransTables(t, m, m, "after TransMLP edit + RefreshEmbeddings")
	afterMLP := scores()
	if slices.Equal(before, afterMLP) {
		t.Fatal("editing a TransMLP first-layer weight and refreshing left every score unchanged")
	}
	// W_q reaches inference through transQ alone. Under the attention as
	// implemented the query half cancels in the softmax (ROADMAP item 1),
	// so the table is what can be checked, not the scores.
	qBefore := append([]float64(nil), m.transQ...)
	for i := range m.TransAtt.Wq.W.W {
		m.TransAtt.Wq.W.W[i] *= -3
	}
	m.RefreshEmbeddings()
	checkTransTables(t, m, m, "after TransAtt edit + RefreshEmbeddings")
	if slices.Equal(qBefore, m.transQ) {
		t.Fatal("editing TransAtt.Wq and refreshing left transQ unchanged")
	}
}

// bitsOf returns the Float64bits of each value, so that slices.Equal
// compares floats bit for bit.
func bitsOf(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestTransTablesConcurrentReaders: the tables are read-only after
// refresh and every session owns its step scratch, so batch matches and
// streaming pushes may share one loaded model from many goroutines (run
// under -race) and still reproduce the sequential results.
func TestTransTablesConcurrentReaders(t *testing.T) {
	d := testDataset(t, 10)
	trained, err := Train(d, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkConcurrentReaders(t, savedAndLoaded(t, d, fastConfig(), trained), d.TestTrips())
}

// TestTransScoringAllocs pins allocations per warm ScoreBatch step at
// zero, cached or refilling: no route is materialized, and the fold
// scratch, the road-probability table and the workspace are pooled.
func TestTransScoringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool caching")
	}
	m, sess, ct := trainedModel(t)
	from := sess.Candidates(ct, 0, m.Cfg.K)
	to := sess.Candidates(ct, 1, m.Cfg.K)
	out := make([]float64, len(from)*len(to))
	sess.ScoreBatch(ct, 1, from, to, out)
	reachable := 0
	for _, v := range out {
		if !math.IsNaN(v) {
			reachable++
		}
	}
	if reachable == 0 {
		t.Fatal("fixture step has no reachable pair")
	}
	if got := testing.AllocsPerRun(50, func() { sess.ScoreBatch(ct, 1, from, to, out) }); got != 0 {
		t.Errorf("cached step: %v allocs, want 0", got)
	}
	// A step that has to refill every road probability costs no more.
	if got := testing.AllocsPerRun(50, func() {
		sess.roadP.invalidate()
		sess.ScoreBatch(ct, 1, from, to, out)
	}); got != 0 {
		t.Errorf("refilling step: %v allocs, want 0", got)
	}
}
