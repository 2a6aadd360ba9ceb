package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Inference telemetry (internal/obs). Counters are interned by name,
// so "hmm.match.degraded" here is the same instrument the hmm matcher
// increments for its scalar-path fallbacks.
var (
	obsCoreMatches   = obs.Default.Counter("core.matches")
	obsCoreMatchErrs = obs.Default.Counter("core.match.errors")
	obsCoreMatchS    = obs.Default.Histogram("core.match.seconds", obs.LatencyBuckets)
	obsRoadProbHits  = obs.Default.Counter("core.roadprob.cache.hits")
	obsRoadProbMiss  = obs.Default.Counter("core.roadprob.cache.misses")
	obsObsBatched    = obs.Default.Counter("core.obs.batched.rows")
	obsTransBatched  = obs.Default.Counter("core.trans.batched.rows")
	obsCoreDegraded  = obs.Default.Counter("hmm.match.degraded")
	obsCoreSanitized = obs.Default.Counter("hmm.match.sanitized")
)

// fpBatchNaN poisons the batched transition scores with NaN (chaos
// tests for the inline degraded fallback; no-op unless armed).
var fpBatchNaN = faultinject.New("core.trans.nan")

// session holds the per-trajectory inference state: point embeddings,
// context-aware point representations (Eq. 6), and a cache of per-road
// trajectory relevance scores (Eq. 10). It implements both
// hmm.ObservationModel and hmm.TransitionModel (including the batched
// hmm.TransitionBatchModel fast path).
//
// All learned scoring is batch-oriented: the per-point candidate pool
// is scored through the factored Eq. 7 layer and the Eq. 8 fuse MLP as
// one pool-sized batch (Model.obsScoreBatchCtx; shortcut
// pseudo-candidates are one-row calls into the same kernel), and each
// Viterbi step's k×k transition fan-out is fused through the Eq. 12 MLP
// in a single product (see ScoreBatch). The scalar transition path is
// kept for the shortcut pass and as the equivalence reference; batched
// and scalar scoring agree bit-for-bit on the MLP stages because
// row-at-a-time and batched matrix products accumulate each output row
// in the same order.
type session struct {
	m  *Model
	ct traj.CellTrajectory

	// ws is the match-goroutine scratch workspace (from the shared nn
	// pool, returned by release).
	ws *nn.Workspace

	ptEmb *nn.Mat // n×d raw point embeddings
	ctx   *nn.Mat // n×d context-aware representations (Eq. 6)

	// obsCtx is ctx·W1_ctx, the per-point half of Eq. 7's first layer
	// (n×d; see Model.obsImplicit).
	obsCtx *nn.Mat

	// transKeys caches the key-side attention state of Eq. 9 over the
	// trajectory's point embeddings, shared by every roadProb query.
	transKeys *nn.AttKeys

	// roadP caches Eq. 10 per segment.
	roadP map[roadnet.SegmentID]float64

	// obsZ caches, per point, the softmax denominator over the
	// candidate pool (Eq. 7 normalizes P_O across the candidate roads
	// of the point); obsMax the max score for stable exponentials.
	obsZ   []float64
	obsMax []float64

	// deg counts batched scoring events that fell back to the
	// classical explicit feature because the learned score came out
	// NaN/Inf (degraded mode); folded into Result.Degraded by Match.
	deg int

	// span, when non-nil, is the request's match span; observation-
	// scoring wall-clock accumulates into obsT (first call stamped in
	// obsT0) and MatchContext emits it as one "observation" child span.
	// Candidates runs sequentially on the match goroutine, so plain
	// fields suffice.
	span  *obs.Span
	obsT0 time.Time
	obsT  float64
}

// newSession precomputes the trajectory-level state. The model must
// have frozen embeddings (RefreshEmbeddings).
func (m *Model) newSession(ct traj.CellTrajectory) *session {
	n, d := len(ct), m.Cfg.Dim
	s := &session{
		m:      m,
		ct:     ct,
		ws:     nn.GetWorkspace(),
		ptEmb:  nn.NewMat(n, d),
		ctx:    nn.NewMat(n, d),
		obsCtx: nn.NewMat(n, d),
		roadP:  make(map[roadnet.SegmentID]float64),
		obsZ:   make([]float64, n),
		obsMax: make([]float64, n),
	}
	for i, cp := range ct {
		copy(s.ptEmb.Row(i), m.towerEmb(cp.Tower))
	}
	// Eq. 6 for every point in one batched self-attention pass.
	s.ws.Reset()
	copy(s.ctx.W, m.ObsAtt.SelfApplyAllWS(s.ws, s.ptEmb).W)
	s.ws.Reset()
	m.obsCtxInto(s.obsCtx, s.ctx)
	if !m.Cfg.DisableImplicitTrans {
		s.transKeys = m.TransAtt.PrecomputeKeys(s.ptEmb)
	}
	return s
}

// release returns the session's pooled resources. The session must not
// be used afterwards.
func (s *session) release() {
	if s.ws != nil {
		nn.PutWorkspace(s.ws)
		s.ws = nil
	}
}

// softmaxP1 is the positive-class probability of a 2-logit softmax,
// arithmetically identical to nn.Softmax(logits)[1].
func softmaxP1(l0, l1 float64) float64 {
	mx := l0
	if l1 > mx {
		mx = l1
	}
	e0 := math.Exp(l0 - mx)
	e1 := math.Exp(l1 - mx)
	return e1 / (e0 + e1)
}

// roadProb evaluates Eq. 10 with caching: the likelihood that segment
// sid belongs to this trajectory. A miss Resets s.ws — callers must
// not hold live workspace buffers across it.
func (s *session) roadProb(sid roadnet.SegmentID) float64 {
	if p, ok := s.roadP[sid]; ok {
		obsRoadProbHits.Inc()
		return p
	}
	obsRoadProbMiss.Inc()
	d := s.m.Cfg.Dim
	s.ws.Reset()
	segRow := &nn.Mat{R: 1, C: d, W: s.m.segEmb(sid)}
	xl, _ := s.transKeys.QueryWS(s.ws, segRow)
	feat := s.ws.Take(1, 2*d)
	copy(feat.W[:d], segRow.W)
	copy(feat.W[d:], xl.W)
	logits := s.m.TransMLP.ApplyWS(s.ws, feat)
	p := softmaxP1(logits.W[0], logits.W[1])
	s.roadP[sid] = p
	return p
}

// transFeatures assembles the Eq. 12 input for a movement into point i
// along the given route: [implicit route relevance (Eq. 11), length
// similarity, turn similarity]. straight is the hoisted straight-line
// distance between points i-1 and i (identical for every pair of the
// step's fan-out).
func (s *session) transFeatures(i int, route roadnet.Route, straight float64) [3]float64 {
	var pRoute float64
	if s.m.Cfg.DisableImplicitTrans {
		pRoute = 0.5
	} else {
		var sum float64
		for _, sid := range route.Segs {
			sum += s.roadProb(sid)
		}
		pRoute = sum / float64(len(route.Segs))
	}
	lenSim, turnSim := routeSims(s.m.Net, route, straight)
	return [3]float64{pRoute, lenSim, turnSim}
}

// geoAngleDiff is a tiny local wrapper to avoid importing geo for one
// function in this file's hot path.
func geoAngleDiff(a, b float64) float64 {
	d := math.Mod(math.Abs(a-b), 2*math.Pi)
	if d > math.Pi {
		d = 2*math.Pi - d
	}
	return d
}

// candidatePool returns the restricted search space the learned P_O
// ranks (§IV-C "limits the candidate search space by the explicit
// features"): the PoolSize nearest segments (clipped to PoolRadius),
// plus the top co-occurring roads of the point's tower. Distance
// bounds the bulk of the space; historical co-occurrence contributes
// the far-but-relevant roads, and the shortcut structure covers points
// whose truth escapes both (Observation 1).
func (m *Model) candidatePool(ct traj.CellTrajectory, i int) []roadnet.SegmentID {
	pool := m.Net.SegmentsNear(ct[i].P, m.Cfg.PoolSize)
	// Clip the tail beyond PoolRadius (ascending distance order).
	for len(pool) > 1 && m.Net.DistTo(pool[len(pool)-1], ct[i].P) > m.Cfg.PoolRadius {
		pool = pool[:len(pool)-1]
	}
	seen := make(map[roadnet.SegmentID]bool, len(pool))
	for _, sid := range pool {
		seen[sid] = true
	}
	for _, sid := range m.Graph.TopCoRoads(ct[i].Tower, m.Cfg.CoPool) {
		if !seen[sid] {
			seen[sid] = true
			pool = append(pool, sid)
		}
	}
	return pool
}

// Candidates implements hmm.ObservationModel: the top-k pool segments
// by learned observation probability — the pool scores softmax-
// normalized per point (Eq. 7's softmax runs over the candidate roads
// of the point, which keeps P_O sharp and comparable across
// candidates) — with the nearest third by geometric distance always
// retained. The distance floor keeps the physical prior intact when
// the learned ranking is uncertain (the paper's P_O likewise folds the
// explicit distance feature into its ranking, §IV-C). The whole pool is
// scored as one batch (Model.obsScoreBatchCtx).
func (s *session) Candidates(ct traj.CellTrajectory, i, k int) []hmm.Candidate {
	pool := s.m.candidatePool(s.ct, i)
	cands := poolCandidates(s.m.Net, s.ct[i].P, pool)
	s.ws.Reset()
	scores := s.ws.TakeVec(len(cands))
	var t time.Time
	if s.span != nil {
		t = time.Now()
		if s.obsT0.IsZero() {
			s.obsT0 = t
		}
	}
	s.m.obsScoreBatchCtx(s.ws, s.ct[i].Tower, s.obsCtx.Row(i), cands, scores)
	if s.span != nil {
		s.obsT += time.Since(t).Seconds()
	}
	// Across-pool softmax with cached normalizer so shortcut
	// pseudo-candidates score consistently later (selectTopK returns
	// the pool max and normalizer it used).
	out, mx, z := selectTopK(cands, scores, k)
	s.obsMax[i] = mx
	s.obsZ[i] = z
	return out
}

// Score implements hmm.ObservationModel for shortcut pseudo-candidates:
// a one-row call into the pool-scoring kernel, normalized by the
// point's cached pool softmax. Runs on the match goroutine (the
// shortcut pass is sequential), so the session workspace is free.
func (s *session) Score(ct traj.CellTrajectory, i int, c *hmm.Candidate) float64 {
	s.ws.Reset()
	one := [1]hmm.Candidate{*c}
	sc := s.ws.TakeVec(1)
	s.m.obsScoreBatchCtx(s.ws, s.ct[i].Tower, s.obsCtx.Row(i), one[:], sc)
	if s.obsZ[i] == 0 {
		// Candidates was never called for this point (single-point
		// trajectories bypass transitions); fall back to the sigmoid.
		return 1 / (1 + math.Exp(-sc[0]))
	}
	return math.Exp(sc[0]-s.obsMax[i]) / s.obsZ[i]
}

// TransScore implements hmm.TransitionModel: the learned transition
// probability of Eq. 12. Scalar reference path, used by the shortcut
// pass; the Viterbi fan-out goes through ScoreBatch.
func (s *session) TransScore(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	route, ok := s.m.Router.RouteBetween(from.Pos(), to.Pos())
	if !ok || len(route.Segs) == 0 {
		return 0, false
	}
	straight := s.ct[i-1].P.Dist(s.ct[i].P)
	f := s.transFeatures(i, route, straight)
	return s.m.fuseTrans(s.ws, f), true
}

// fuseTrans evaluates Eq. 12 for one pair's features — the one-row form
// of ScoreBatch's fuse, same arithmetic per row. ws is Reset here, so
// the features must have been computed already (transFeatures and
// roadProb Reset it too).
func (m *Model) fuseTrans(ws *nn.Workspace, f [3]float64) float64 {
	ws.Reset()
	row := ws.Take(1, 3)
	copy(row.W, f[:])
	logits := m.TransFuse.ApplyWS(ws, row)
	p := softmaxP1(logits.W[0], logits.W[1])
	if g := m.transGamma.W.W[0]; g != 1 {
		p = math.Pow(p, g)
	}
	return p
}

// roadProbFill batch-computes every uncached Eq. 10 road probability
// referenced by the step's reachable routes: one multi-row attention
// read-out (nn.AttKeys.QueryAllWS) plus one R×2d product through the
// relevance MLP instead of R single-row passes. Per-row arithmetic
// mirrors roadProb exactly (MatMulInto is row-independent and the
// qdot/softmax/read-out order is shared), so cached values are
// bit-identical whichever path computed them; the scalar TransScore
// path keeps reading the same cache.
func (s *session) roadProbFill(routes []roadnet.Route, mask []float64) {
	if s.m.Cfg.DisableImplicitTrans {
		return
	}
	// Unique uncached segments across the step, in first-encounter order
	// (deterministic: routes are pair-indexed).
	var need []roadnet.SegmentID
	seen := make(map[roadnet.SegmentID]bool)
	for p := range routes {
		if math.IsNaN(mask[p]) {
			continue
		}
		for _, sid := range routes[p].Segs {
			if seen[sid] {
				continue
			}
			seen[sid] = true
			if _, ok := s.roadP[sid]; !ok {
				need = append(need, sid)
			}
		}
	}
	obsRoadProbMiss.Add(int64(len(need)))
	if len(need) == 0 {
		return
	}
	d := s.m.Cfg.Dim
	segs := s.ws.Take(len(need), d)
	for r, sid := range need {
		copy(segs.Row(r), s.m.segEmb(sid))
	}
	xl := s.transKeys.QueryAllWS(s.ws, segs)
	feat := s.ws.Take(len(need), 2*d)
	for r := 0; r < len(need); r++ {
		row := feat.Row(r)
		copy(row[:d], segs.Row(r))
		copy(row[d:], xl.Row(r))
	}
	logits := s.m.TransMLP.ApplyWS(s.ws, feat)
	for r, sid := range need {
		lr := logits.Row(r)
		s.roadP[sid] = softmaxP1(lr[0], lr[1])
	}
}

// ScoreBatch implements hmm.TransitionBatchModel: the whole k×k
// transition fan-out of one Viterbi step in a single fused-MLP batch.
// A route is built per pair, then every road probability the step's
// routes reference is batch-filled in one shot (roadProbFill), the
// explicit features are assembled from the warm cache, and one
// (k·k)×3 matrix product through the Eq. 12 fuse MLP scores every
// reachable pair at once. The per-step straight-line distance is
// hoisted out of the pair loop. Results are identical to pairwise
// TransScore: cached road probabilities are bit-identical whichever
// path computed them, and the MLP products are row-independent.
func (s *session) ScoreBatch(ct traj.CellTrajectory, i int, from, to []hmm.Candidate, out []float64) {
	nFrom, nTo := len(from), len(to)
	nPairs := nFrom * nTo
	straight := s.ct[i-1].P.Dist(s.ct[i].P)
	s.ws.Reset()
	feat := s.ws.Take(nPairs, 3)
	routes := make([]roadnet.Route, nPairs)

	// Phase 1: a route per pair. out doubles as the reachability mask
	// (NaN = unreachable).
	for p := 0; p < nPairs; p++ {
		route, ok := s.m.Router.RouteBetween(from[p/nTo].Pos(), to[p%nTo].Pos())
		if !ok || len(route.Segs) == 0 {
			out[p] = math.NaN()
			continue
		}
		routes[p] = route
		out[p] = 0
	}

	// Phase 2: batch every uncached road probability the step needs,
	// then assemble the explicit features from the warm cache. Sharing
	// s.ws with transFeatures is safe only because roadProbFill
	// guarantees every roadProb read below is a cache hit (a miss would
	// Reset the workspace under the live feat buffer).
	s.roadProbFill(routes, out)
	for p := 0; p < nPairs; p++ {
		row := feat.Row(p)
		if math.IsNaN(out[p]) {
			row[0], row[1], row[2] = 0, 0, 0
			continue
		}
		f := s.transFeatures(i, routes[p], straight)
		row[0], row[1], row[2] = f[0], f[1], f[2]
	}

	// Phase 3: one batched product through the fuse MLP. NaN in out is
	// the unreachable sentinel of the batch protocol, so a learned
	// score that itself comes out non-finite (corrupt weights, a NaN
	// that slipped past load validation, fault injection) must be
	// caught here: it degrades to the explicit length-similarity
	// feature — exactly the classical Eq. 3 exponential with β=500,
	// already computed into the feature row — instead of silently
	// reading as "unreachable" and breaking the chain.
	logits := s.m.TransFuse.ApplyWS(s.ws, feat) // nPairs×2
	g := s.m.transGamma.W.W[0]
	for p := 0; p < nPairs; p++ {
		if math.IsNaN(out[p]) {
			continue
		}
		lr := logits.Row(p)
		pr := softmaxP1(lr[0], lr[1])
		if g != 1 {
			pr = math.Pow(pr, g)
		}
		if fpBatchNaN.Fail() {
			pr = math.NaN()
		}
		if math.IsNaN(pr) || math.IsInf(pr, 0) {
			if fb := feat.Row(p)[1]; !math.IsNaN(fb) && !math.IsInf(fb, 0) {
				pr = fb
			} else {
				out[p] = math.NaN()
				s.deg++
				continue
			}
			s.deg++
		}
		out[p] = pr
	}
	obsTransBatched.Add(int64(nPairs))
}

// transAdapter exposes the session's transition scoring under the
// hmm.TransitionModel method names (the session's own Score is taken by
// hmm.ObservationModel).
type transAdapter struct{ s *session }

func (t transAdapter) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	return t.s.TransScore(ct, i, from, to)
}

// ScoreBatch forwards the batched fast path (hmm.TransitionBatchModel).
func (t transAdapter) ScoreBatch(ct traj.CellTrajectory, i int, from, to []hmm.Candidate, out []float64) {
	t.s.ScoreBatch(ct, i, from, to, out)
}

// Match map-matches one cellular trajectory with the trained model.
func (m *Model) Match(ct traj.CellTrajectory) (*hmm.Result, error) {
	return m.MatchContext(context.Background(), ct)
}

// MatchContext is Match with cancellation and a hardened boundary: the
// context is checked between Viterbi steps (a canceled context stops
// the match within one step's work), and a panic anywhere in inference
// — most plausibly an nn shape mismatch from a model whose weights
// disagree with the configuration — is recovered into a wrapped error
// instead of unwinding through the caller.
func (m *Model) MatchContext(ctx context.Context, ct traj.CellTrajectory) (res *hmm.Result, err error) {
	if m.emb == nil {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: model has no embeddings; call RefreshEmbeddings after training or loading")
	}
	if len(ct) == 0 {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: empty trajectory")
	}
	// A sampled request's span arrives on ctx; the match opens a child
	// span, re-wraps the context so the hmm layer parents its stage
	// spans under it, and emits sanitize/session_init/observation
	// children itself. All span calls are nil-safe, so the untraced
	// path pays one context lookup.
	msp := obs.SpanFromContext(ctx).StartChild("match")
	defer msp.End()
	ctx = obs.ContextWithSpan(ctx, msp)
	var spanT time.Time
	if msp != nil {
		spanT = time.Now()
	}
	// Sanitize before the session precomputes per-point state: the
	// session's embeddings, attention keys, and softmax caches are all
	// indexed by trajectory position, so dropping points later (inside
	// the hmm matcher) would misalign them.
	ct, srep, err := traj.Sanitize(ct, m.Cfg.Sanitize)
	if err != nil {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: %w", err)
	}
	if msp != nil {
		msp.ChildAt("sanitize", spanT, time.Since(spanT))
		msp.SetAttr("points", len(ct))
	}
	if srep.Dropped() > 0 {
		obsCoreSanitized.Add(int64(srep.Dropped()))
	}
	if len(ct) == 0 {
		obsCoreMatchErrs.Inc()
		return nil, fmt.Errorf("core: no valid points left after sanitization (dropped %d)", srep.Dropped())
	}
	var start time.Time
	if timed := obs.Default.Enabled(); timed {
		start = time.Now()
		defer func() { obsCoreMatchS.ObserveSince(start) }()
	}
	defer func() {
		if r := recover(); r != nil {
			obsCoreMatchErrs.Inc()
			res, err = nil, fmt.Errorf("core: match panicked (likely a model/config shape mismatch): %v", r)
		}
	}()
	if msp != nil {
		spanT = time.Now()
	}
	sess := m.newSession(ct)
	defer sess.release()
	if msp != nil {
		msp.ChildAt("session_init", spanT, time.Since(spanT))
		sess.span = msp
	}
	matcher := &hmm.Matcher{
		Net:    m.Net,
		Router: m.Router,
		Obs:    sess,
		Trans:  transAdapter{sess},
		Cfg: hmm.Config{
			K:         m.Cfg.K,
			Shortcuts: m.Cfg.Shortcuts,
			OnBreak:   m.Cfg.OnBreak,
			// Sanitization already ran above (session state must align
			// with what the matcher sees); do not re-run it inside.
			Sanitize:         traj.SanitizeOff,
			Trace:            m.Cfg.Trace,
			Explain:          m.Cfg.Explain,
			ExplainTopK:      m.Cfg.ExplainTopK,
			ExplainLowMargin: m.Cfg.ExplainLowMargin,
		},
	}
	res, err = matcher.MatchContext(ctx, ct)
	if msp != nil && sess.obsT > 0 {
		msp.ChildAt("observation", sess.obsT0,
			time.Duration(sess.obsT*float64(time.Second)))
	}
	if err != nil {
		obsCoreMatchErrs.Inc()
		return nil, err
	}
	res.Sanitize = srep
	if d := sess.deg; d > 0 {
		// Fold the batched-path fallbacks into the result and the
		// shared degraded counter (the hmm layer counted its own).
		res.Degraded += d
		obsCoreDegraded.Add(int64(d))
	}
	if msp != nil {
		msp.SetAttr("degraded", res.Degraded)
		msp.SetAttr("gaps", len(res.Gaps))
	}
	obsCoreMatches.Inc()
	return res, nil
}
