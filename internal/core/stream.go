package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// This file holds the learned streaming matcher: a per-trajectory
// session that grows incrementally as points arrive, so a trained
// Model can drive hmm.StreamMatcher without knowing the trajectory up
// front. The batch session (session.go) precomputes Eq. 6/9 over the
// whole trajectory; the streaming session computes them causally —
// point i attends over points 0..i only, because the future has not
// been observed yet. Scoring is otherwise the same arithmetic: the
// shared helpers below are used verbatim by both paths.

// poolCandidates materializes a candidate pool as hmm.Candidates with
// their projections and point-to-road distances filled in.
func poolCandidates(net *roadnet.Network, p geo.Point, pool []roadnet.SegmentID) []hmm.Candidate {
	cands := make([]hmm.Candidate, 0, len(pool))
	for _, sid := range pool {
		c := hmm.Candidate{Seg: sid}
		c.Proj, c.Frac = net.Project(sid, p)
		c.Dist = c.Proj.Dist(p)
		cands = append(cands, c)
	}
	return cands
}

// selectTopK softmax-normalizes the fused log-odds over the pool
// (Eq. 7's softmax runs across the candidate roads of the point),
// fills each candidate's Obs, and picks the top-k by learned
// probability with the nearest third by geometric distance always
// retained. It returns the chosen candidates in descending probability
// order plus the pool's (max, normalizer) pair so later pseudo-
// candidate scores stay on the same scale.
func selectTopK(cands []hmm.Candidate, scores []float64, k int) ([]hmm.Candidate, float64, float64) {
	mx := scores[0]
	for _, v := range scores[1:] {
		if v > mx {
			mx = v
		}
	}
	var z float64
	for _, v := range scores {
		z += math.Exp(v - mx)
	}
	for j := range cands {
		cands[j].Obs = math.Exp(scores[j]-mx) / z
	}
	if k >= len(cands) {
		sort.Slice(cands, func(a, b int) bool { return cands[a].Obs > cands[b].Obs })
		return cands, mx, z
	}
	// Mark the nearest k/3 by distance as guaranteed.
	byDist := make([]int, len(cands))
	for i := range byDist {
		byDist[i] = i
	}
	sort.Slice(byDist, func(a, b int) bool { return cands[byDist[a]].Dist < cands[byDist[b]].Dist })
	guaranteed := make(map[int]bool, k/3+1)
	for _, idx := range byDist[:k/3+1] {
		guaranteed[idx] = true
	}
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ga, gb := guaranteed[order[a]], guaranteed[order[b]]
		if ga != gb {
			return ga
		}
		if cands[order[a]].Obs != cands[order[b]].Obs {
			return cands[order[a]].Obs > cands[order[b]].Obs
		}
		return cands[order[a]].Seg < cands[order[b]].Seg
	})
	out := make([]hmm.Candidate, k)
	for i := 0; i < k; i++ {
		out[i] = cands[order[i]]
	}
	// Present in descending learned-probability order.
	sort.Slice(out, func(a, b int) bool { return out[a].Obs > out[b].Obs })
	return out, mx, z
}

// obsImplicit fills imp with Eq. 7's implicit point-road probability
// for every candidate of one point. The first layer of ObsMLP is
// factored over its [segment ; context] input, W1 = [W1_seg ; W1_ctx]:
// the hidden row is ReLU(obsSeg[s] + ctxHalf), where obsSeg is the
// per-segment table frozen by RefreshEmbeddings and ctxHalf is the
// point's ctx_i·W1_ctx (Model.obsCtxInto) — d adds per pool row in
// place of a 2d×d product. Only the association of the first-layer sum
// differs from ObsMLP.Apply over explicit [segEmb ; ctx] rows.
func (m *Model) obsImplicit(ws *nn.Workspace, ctxHalf []float64, cands []hmm.Candidate, imp []float64) {
	if m.Cfg.DisableImplicitObs {
		for j := range imp {
			imp[j] = 0.5
		}
		return
	}
	p := len(cands)
	hid := ws.Take(p, m.Cfg.Dim)
	for j := range cands {
		row := hid.Row(j)
		for k, v := range m.obsSeg.Row(int(cands[j].Seg)) {
			v += ctxHalf[k]
			if v < 0 {
				v = 0
			}
			row[k] = v
		}
	}
	logits := ws.Take(p, 2)
	m.ObsMLP.Layers[1].ApplyInto(logits, hid)
	for j := 0; j < p; j++ {
		lr := logits.Row(j)
		imp[j] = softmaxP1(lr[0], lr[1])
	}
}

// obsScoreBatchCtx fills scores with the fused Eq. 8 log-odds of every
// candidate of one point, given the point's tower and the context half
// of its Eq. 7 first layer (see obsImplicit). The explicit distance
// feature is presented as a calibrated Gaussian (the paper
// batch-normalizes it; a Gaussian of the calibrated scale carries the
// same information in a shape the small fuse MLP can use directly, so
// the classical Eq. 2 behaviour is the learner's starting point rather
// than something it must rediscover). Batch pools, streaming pushes and
// one-row shortcut pseudo-candidates all score through here, so they
// share one arithmetic order and are bit-equal by construction.
func (m *Model) obsScoreBatchCtx(ws *nn.Workspace, tower cellular.TowerID, ctxHalf []float64, cands []hmm.Candidate, scores []float64) {
	p := len(cands)
	imp := ws.TakeVec(p)
	m.obsImplicit(ws, ctxHalf, cands, imp)
	fuse := ws.Take(p, 3)
	for j := range cands {
		row := fuse.Row(j)
		row[0] = imp[j]
		row[1] = m.gaussDist(cands[j].Dist)
		row[2] = m.Graph.CoOccurrenceNorm(tower, cands[j].Seg)
	}
	logits := m.ObsFuse.ApplyWS(ws, fuse) // p×2
	for j := 0; j < p; j++ {
		lr := logits.Row(j)
		scores[j] = lr[1] - lr[0]
	}
	obsObsBatched.Add(int64(p))
}

// routeSims computes the explicit Eq. 12 features of a route: length
// similarity against the straight-line distance and turn similarity
// over consecutive segment bearings.
func routeSims(net *roadnet.Network, route roadnet.Route, straight float64) (lenSim, turnSim float64) {
	lenSim = math.Exp(-math.Abs(straight-route.Dist) / 500)
	var turn, prev float64
	for j, sid := range route.Segs {
		b := net.Bearing(sid)
		if j > 0 {
			turn += geoAngleDiff(prev, b)
		}
		prev = b
	}
	turnSim = math.Exp(-turn / math.Pi)
	return lenSim, turnSim
}

// streamSession is the incremental analogue of session: per-point
// embeddings and context representations are appended as points
// arrive, the Eq. 9 key cache is rebuilt lazily whenever the
// trajectory has grown (attention context changes with every new
// point), and the Eq. 10 road-probability cache is invalidated with
// it. One streamSession serves exactly one hmm.StreamMatcher and, like
// the matcher itself, is not safe for concurrent use — the serving
// layer serializes pushes per session.
type streamSession struct {
	m *Model

	n    int       // points absorbed so far
	embW []float64 // n×d raw point embeddings, append-grown
	ctxW []float64 // n×d causal context rows (Eq. 6 over points 0..i)

	// keys caches the key-side attention state of Eq. 9 over the first
	// keysN point embeddings; rebuilt when the trajectory grows.
	keys  *nn.AttKeys
	keysN int

	// roadP caches Eq. 10 per segment for the current keys; cleared on
	// every keys rebuild because the trajectory context changed.
	roadP map[roadnet.SegmentID]float64

	// obsZ/obsMax cache, per point, the pool softmax normalizer and max
	// (same contract as session.obsZ/obsMax).
	obsZ   []float64
	obsMax []float64
}

// extend absorbs any trajectory points not yet seen: their raw
// embeddings and causal context-aware representations (attention of
// point i over points 0..i — the batch session attends over the whole
// trajectory, which a stream cannot).
func (s *streamSession) extend(ct traj.CellTrajectory) {
	d := s.m.Cfg.Dim
	for i := s.n; i < len(ct); i++ {
		s.embW = append(s.embW, s.m.towerEmb(ct[i].Tower)...)
		kv := &nn.Mat{R: i + 1, C: d, W: s.embW[: (i+1)*d : (i+1)*d]}
		q := &nn.Mat{R: 1, C: d, W: s.embW[i*d : (i+1)*d]}
		ws := nn.GetWorkspace()
		out, _ := s.m.ObsAtt.ApplyWS(ws, q, kv, kv)
		s.ctxW = append(s.ctxW, out.W...)
		nn.PutWorkspace(ws)
		s.obsZ = append(s.obsZ, 0)
		s.obsMax = append(s.obsMax, 0)
		s.n = i + 1
	}
}

// ctxRow returns point i's causal context representation.
func (s *streamSession) ctxRow(i int) []float64 {
	d := s.m.Cfg.Dim
	return s.ctxW[i*d : (i+1)*d]
}

// obsCtxHalf returns, in ws scratch, the context half of point i's
// Eq. 7 first layer: one 1×d · d×d product per scored point. The row
// is copied into scratch so no Mat header over ctxW escapes to the heap.
func (s *streamSession) obsCtxHalf(ws *nn.Workspace, i int) []float64 {
	d := s.m.Cfg.Dim
	ctx := ws.Take(1, d)
	copy(ctx.W, s.ctxRow(i))
	half := ws.Take(1, d)
	s.m.obsCtxInto(half, ctx)
	return half.W
}

// ensureKeys (re)builds the Eq. 9 key cache over every point seen so
// far. Each rebuild invalidates the road-probability cache: Eq. 10
// conditions on the whole trajectory context, which just changed.
func (s *streamSession) ensureKeys() {
	if s.keys != nil && s.keysN == s.n {
		return
	}
	d := s.m.Cfg.Dim
	kv := &nn.Mat{R: s.n, C: d, W: s.embW[: s.n*d : s.n*d]}
	s.keys = s.m.TransAtt.PrecomputeKeys(kv)
	s.keysN = s.n
	s.roadP = make(map[roadnet.SegmentID]float64, len(s.roadP))
}

// roadProb evaluates Eq. 10 against the causal key cache, memoized per
// segment until the trajectory grows.
func (s *streamSession) roadProb(ws *nn.Workspace, sid roadnet.SegmentID) float64 {
	if p, ok := s.roadP[sid]; ok {
		obsRoadProbHits.Inc()
		return p
	}
	obsRoadProbMiss.Inc()
	d := s.m.Cfg.Dim
	ws.Reset()
	segRow := &nn.Mat{R: 1, C: d, W: s.m.segEmb(sid)}
	xl, _ := s.keys.QueryWS(ws, segRow)
	feat := ws.Take(1, 2*d)
	copy(feat.W[:d], segRow.W)
	copy(feat.W[d:], xl.W)
	logits := s.m.TransMLP.ApplyWS(ws, feat)
	p := softmaxP1(logits.W[0], logits.W[1])
	s.roadP[sid] = p
	return p
}

// Candidates implements hmm.ObservationModel: identical ranking to the
// batch session (pool scoring, pool softmax, nearest-third floor), but
// with the point's causal context representation.
func (s *streamSession) Candidates(ct traj.CellTrajectory, i, k int) []hmm.Candidate {
	s.extend(ct)
	pool := s.m.candidatePool(ct, i)
	cands := poolCandidates(s.m.Net, ct[i].P, pool)
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	scores := ws.TakeVec(len(cands))
	s.m.obsScoreBatchCtx(ws, ct[i].Tower, s.obsCtxHalf(ws, i), cands, scores)
	out, mx, z := selectTopK(cands, scores, k)
	s.obsMax[i], s.obsZ[i] = mx, z
	return out
}

// Score implements hmm.ObservationModel for arbitrary candidates,
// normalized by the point's cached pool softmax (the streaming matcher
// never synthesizes shortcut pseudo-candidates, but the interface — and
// any future caller — gets the same contract as the batch session).
func (s *streamSession) Score(ct traj.CellTrajectory, i int, c *hmm.Candidate) float64 {
	s.extend(ct)
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	one := []hmm.Candidate{*c}
	sc := ws.TakeVec(1)
	s.m.obsScoreBatchCtx(ws, ct[i].Tower, s.obsCtxHalf(ws, i), one, sc)
	if s.obsZ[i] == 0 {
		return 1 / (1 + math.Exp(-sc[0]))
	}
	return math.Exp(sc[0]-s.obsMax[i]) / s.obsZ[i]
}

// streamTrans adapts the streaming session to hmm.TransitionModel (the
// session's own Score method is taken by hmm.ObservationModel).
type streamTrans struct{ s *streamSession }

// Score is the learned transition probability of Eq. 12 with causal
// trajectory context. The streaming matcher scores each fan-out
// pairwise at push time, so no batched variant is needed.
func (t streamTrans) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	s := t.s
	s.extend(ct)
	route, ok := s.m.Router.RouteBetween(from.Pos(), to.Pos())
	if !ok || len(route.Segs) == 0 {
		return 0, false
	}
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	pRoute := 0.5
	if !s.m.Cfg.DisableImplicitTrans {
		s.ensureKeys()
		var sum float64
		for _, sid := range route.Segs {
			sum += s.roadProb(ws, sid)
		}
		pRoute = sum / float64(len(route.Segs))
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	lenSim, turnSim := routeSims(s.m.Net, route, straight)
	return s.m.fuseTrans(ws, [3]float64{pRoute, lenSim, turnSim}), true
}

// NewStream returns an online fixed-lag matcher driven by the trained
// learned models: push points as they arrive and receive finalized
// matches Lag points behind real time. Each call creates an
// independent per-trajectory session (streaming LHMM keeps
// per-trajectory context), so construct one StreamMatcher per device
// trajectory. The model's OnBreak and Sanitize policies carry over;
// shortcuts do not apply in streaming mode (they would revise
// already-emitted matches).
//
// The point representations are causal — point i attends over points
// 0..i — so streamed matches can differ from the offline Match result
// for the same trajectory; two streams over the same model and point
// sequence are deterministic and identical.
//
// NewStream panics if the model has no frozen embeddings; call
// RefreshEmbeddings (or Load) first.
func (m *Model) NewStream(lag int) *hmm.StreamMatcher {
	if m.emb == nil {
		panic(fmt.Sprintf("core: NewStream on model %p without embeddings; call RefreshEmbeddings after training or loading", m))
	}
	ss := &streamSession{m: m, roadP: make(map[roadnet.SegmentID]float64)}
	return hmm.NewStreamMatcher(&hmm.Matcher{
		Net:    m.Net,
		Router: m.Router,
		Obs:    ss,
		Trans:  streamTrans{ss},
		Cfg: hmm.Config{
			K:        m.Cfg.K,
			OnBreak:  m.Cfg.OnBreak,
			Sanitize: m.Cfg.Sanitize,
		},
	}, lag)
}
