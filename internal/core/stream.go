package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// This file holds the streaming side of the learned matcher — the
// causal fill of a session (extend, ensureKeys) and Model.NewStream,
// which lets a trained Model drive hmm.StreamMatcher without knowing
// the trajectory up front — and the Model-level scoring kernels every
// session scores through, however it was filled. newSession
// (session.go) computes Eq. 6/9 over the whole trajectory; extend
// computes them causally — point i attends over points 0..i only,
// because the future has not been observed yet. That is the only
// difference between a batch and a streaming match.

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
// candidate scores stay on the same scale. The exponentials go through
// one nn.ExpInto call in place, so scores is overwritten.
func selectTopK(cands []hmm.Candidate, scores []float64, k int) ([]hmm.Candidate, float64, float64) {
	mx := scores[0]
	for _, v := range scores[1:] {
		if v > mx {
			mx = v
		}
	}
	for j, v := range scores {
		scores[j] = v - mx
	}
	nn.ExpInto(scores, scores)
	var z float64
	for j, e := range scores {
		cands[j].Obs = e
		z += e
	}
	for j := range cands {
		cands[j].Obs /= z
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
	// A stack array holds the marks of any pool up to its size (the
	// default configuration's pools are at most 4k = 120 roads).
	var marks [256]bool
	guaranteed := marks[:]
	if len(cands) > len(marks) {
		guaranteed = make([]bool, len(cands))
	}
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
// place of a 2d×d product. Four candidates' rows at a time are built in
// a 4×d scratch block and read out by nn.Linear.ApplyReLU2Rows, so no
// pool×d hidden matrix exists, and the pool's softmaxes are one
// softmaxP1Into call. Only the association of the first-layer sum
// differs from ObsMLP.Apply over explicit [segEmb ; ctx] rows.
func (m *Model) obsImplicit(ws *nn.Workspace, ctxHalf []float64, cands []hmm.Candidate, imp []float64) {
	if m.Cfg.DisableImplicitObs {
		for j := range imp {
			imp[j] = 0.5
		}
		return
	}
	d := m.Cfg.Dim
	hid := ws.Take(4, d)
	logits := ws.TakeVec(2 * len(cands))
	for j0 := 0; j0 < len(cands); j0 += 4 {
		block := cands[j0:min(j0+4, len(cands))]
		for r, c := range block {
			row := hid.Row(r)
			for k, v := range m.obsSeg.Row(int(c.Seg)) {
				row[k] = v + ctxHalf[k]
			}
		}
		m.ObsMLP.Layers[1].ApplyReLU2Rows(logits[2*j0:], hid.Rows(0, len(block)))
	}
	softmaxP1Into(imp[:len(cands)], logits)
}

// obsScoreBatchCtx fills scores with the fused Eq. 8 log-odds of every
// candidate of one point, given the point's tower and the context half
// of its Eq. 7 first layer (see obsImplicit). The explicit distance
// feature is presented as a calibrated Gaussian (the paper
// batch-normalizes it; a Gaussian of the calibrated scale carries the
// same information in a shape the small fuse MLP can use directly, so
// the classical Eq. 2 behaviour is the learner's starting point rather
// than something it must rediscover). The pool's Gaussians are one
// nn.ExpInto call and its fuse logits one nn.MLP.ApplyWS call.
// Batch pools, streaming pushes and one-row shortcut pseudo-candidates
// all score through here, so they share one arithmetic order and are
// bit-equal by construction.
func (m *Model) obsScoreBatchCtx(ws *nn.Workspace, tower cellular.TowerID, ctxHalf []float64, cands []hmm.Candidate, scores []float64) {
	p := len(cands)
	imp := ws.TakeVec(p)
	m.obsImplicit(ws, ctxHalf, cands, imp)
	gauss := ws.TakeVec(p)
	for j := range cands {
		gauss[j] = m.gaussArg(cands[j].Dist)
	}
	nn.ExpInto(gauss, gauss)
	fuse := ws.Take(p, 3)
	for j := range cands {
		row := fuse.Row(j)
		row[0] = imp[j]
		row[1] = gauss[j]
		row[2] = m.Graph.CoOccurrenceNorm(tower, cands[j].Seg)
	}
	logits := m.ObsFuse.ApplyWS(ws, fuse) // p×2
	for j := 0; j < p; j++ {
		lr := logits.Row(j)
		scores[j] = lr[1] - lr[0]
	}
	obsObsBatched.Add(int64(p))
}

// geoAngleDiff is the absolute difference of two bearings folded into
// [0, π], the turn between consecutive route segments. Kept here instead
// of geo.AngleDiff because the two round differently (this one reduces
// with math.Mod), and every path digest is pinned to this arithmetic.
// math.Mod(d, 2π) returns d itself for 0 ≤ d < 2π, so it is called only
// when d is not below 2π (NaN and +Inf included).
func geoAngleDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if !(d < 2*math.Pi) {
		d = math.Mod(d, 2*math.Pi)
	}
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// extend absorbs any trajectory points the session has not seen yet:
// their raw embeddings, causal context-aware representations (attention
// of point i over points 0..i — newSession attends over the whole
// trajectory, which a stream cannot) and Eq. 7 context halves. Each
// point grows the Eq. 6 key cache by its own row and reads its context
// out of it. It is also how a restored session is rebuilt
// (DecodeStreamSnapshot extends an empty session over the snapshot's
// points), so the rows are bit-equal to the uninterrupted session's. A
// no-op once n == len(ct), which is always the case for a session
// newSession filled.
func (s *session) extend(ct traj.CellTrajectory) {
	if s.n >= len(ct) {
		return
	}
	d := s.m.Cfg.Dim
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	for i := s.n; i < len(ct); i++ {
		s.embW = append(s.embW, s.m.towerEmb(ct[i].Tower)...)
		kv := &nn.Mat{R: i + 1, C: d, W: s.embW[: (i+1)*d : (i+1)*d]}
		if s.ctxKeys == nil {
			s.ctxKeys = s.m.ObsAtt.PrecomputeKeys(kv)
		} else {
			s.ctxKeys.Grow(kv)
		}
		ws.Reset()
		qdot := ws.TakeVec(1)
		s.m.ObsAtt.QueryScoresInto(qdot, ws, kv.Rows(i, i+1))
		s.ctxW = slices.Grow(s.ctxW, d)[:(i+1)*d]
		ctx := &nn.Mat{R: 1, C: d, W: s.ctxW[i*d:]}
		s.ctxKeys.ReadOutInto(ctx.W, ws.TakeVec(i+1), qdot[0])
		half := ws.Take(1, d)
		s.m.obsCtxInto(half, ctx)
		s.obsCtx = append(s.obsCtx, half.W...)
		s.obsZ = append(s.obsZ, 0)
		s.obsMax = append(s.obsMax, 0)
		s.n = i + 1
	}
}

// ensureKeys grows the Eq. 9 key cache and transVal by the rows of the
// points absorbed since the last call (both are per-point products, so
// appending is bit-equal to building over all n at once); a no-op once
// keysN == n. Derived state, so a restored session builds both on its
// first transition step. Each growth invalidates a held
// road-probability table: Eq. 10 conditions on the whole trajectory
// context, which just changed.
func (s *session) ensureKeys() {
	if s.m.Cfg.DisableImplicitTrans || s.keys != nil && s.keysN == s.n {
		return
	}
	d, emb := s.m.Cfg.Dim, s.rows(s.embW)
	if s.keys == nil {
		s.keys = s.m.TransAtt.PrecomputeKeys(emb)
	} else {
		s.keys.Grow(emb)
	}
	s.transVal = slices.Grow(s.transVal, (s.n-s.keysN)*d)[:s.n*d]
	s.m.transValInto(s.rows(s.transVal).Rows(s.keysN, s.n), emb.Rows(s.keysN, s.n))
	s.keysN = s.n
	if s.roadP != nil {
		s.roadP.invalidate()
	}
}

// NewStream returns an online fixed-lag matcher driven by the trained
// learned models: push points as they arrive and receive finalized
// matches Lag points behind real time. Each call creates an
// independent per-trajectory session (streaming LHMM keeps
// per-trajectory context), so construct one StreamMatcher per device
// trajectory. The model's OnBreak and Sanitize policies and its
// Shortcuts carry over; the stream runs Algorithm 2 at lag ≥ 1 (see
// hmm.StreamMatcher).
//
// The point representations are causal — point i attends over points
// 0..i — so streamed matches can differ from the offline Match result
// for the same trajectory; two streams over the same model and point
// sequence are deterministic and identical. Only which keys a point sees
// differs: the per-key scores, and the context of a point that has seen
// the whole trip, equal the batch's bit for bit.
//
// NewStream panics if the model has no frozen embeddings; call
// RefreshEmbeddings (or Load) first.
func (m *Model) NewStream(lag int) *hmm.StreamMatcher {
	if m.emb == nil {
		panic(fmt.Sprintf("core: NewStream on model %p without embeddings; call RefreshEmbeddings after training or loading", m))
	}
	return hmm.NewStreamMatcher(m.streamMatcher(&session{m: m}, m.Cfg.OnBreak, m.Cfg.Sanitize), lag)
}

// streamMatcher is the matcher a session drives: a whole-trajectory
// match, or a stream, new or restored from a snapshot (whose header
// carries the session's own break and sanitize policies).
func (m *Model) streamMatcher(ss *session, onBreak hmm.BreakPolicy, sanitize traj.SanitizeMode) *hmm.Matcher {
	return &hmm.Matcher{
		Net:    m.Net,
		Router: m.Router,
		Obs:    ss,
		Trans:  transAdapter{ss},
		Cfg: hmm.Config{
			K:         m.Cfg.K,
			Shortcuts: m.Cfg.Shortcuts,
			OnBreak:   onBreak,
			Sanitize:  sanitize,
		},
	}
}
