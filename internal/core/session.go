package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// This file holds the one learned per-trajectory state, session, and
// everything that scores against it: the observation side (Candidates,
// Score), the transition side (roadProbRows, foldFeatures, ScoreBatch)
// and the batch entry point MatchContext. A session is
// filled either whole (newSession, below) or causally, point by point
// (extend, stream.go); every scoring method is indifferent to which.

// Inference telemetry (internal/obs).
var (
	obsCoreMatches   = obs.Default.Counter("core.matches")
	obsCoreMatchErrs = obs.Default.Counter("core.match.errors")
	obsCoreMatchS    = obs.Default.Histogram("core.match.seconds", obs.LatencyBuckets)
	obsRoadProbHits  = obs.Default.Counter("core.roadprob.cache.hits")
	obsRoadProbMiss  = obs.Default.Counter("core.roadprob.cache.misses")
	obsObsBatched    = obs.Default.Counter("core.obs.batched.rows")
	obsTransBatched  = obs.Default.Counter("core.trans.batched.rows")
	obsCoreSanitized = obs.Default.Counter("hmm.match.sanitized")
)

// fpBatchNaN poisons the batched transition scores with NaN (chaos
// tests for the inline degraded fallback; no-op unless armed).
var fpBatchNaN = faultinject.New("core.trans.nan")

// session holds the per-trajectory inference state: point embeddings,
// context-aware point representations (Eq. 6), and a cache of per-road
// trajectory relevance scores (Eq. 10). It implements
// hmm.ObservationModel itself and, through transAdapter,
// hmm.TransitionModel with the batched hmm.TransitionBatchModel fast
// path.
//
// The per-point rows are flat and append-grown, so the same state
// serves a batch match (newSession fills all n rows at once, each point
// attending over the whole trajectory) and a streaming one (extend
// appends a row per pushed point, attending over the points seen so
// far). An lhmm-session/v3 snapshot serialises only obsZ and obsMax;
// restore refills the rest with extend, as the pushes did. One session
// serves one match or one hmm.StreamMatcher and is not safe for
// concurrent use — the serving layer serializes pushes per session.
// Matrix scratch comes from the shared nn workspace pool per call and a
// step's fold scratch from foldPool, so an idle session pins neither;
// nor, between pushes, the segment-indexed roadP table (see roadTable).
//
// All learned scoring is batch-oriented: the per-point candidate pool
// is scored through the factored Eq. 7 layer and the Eq. 8 fuse MLP as
// one pool-sized batch (Model.obsScoreBatchCtx; a shortcut
// pseudo-candidate on a road outside the point's layer is a one-row
// call into the same kernel), and each Viterbi step's k×k transition
// fan-out is folded down shortest-path trees and read out of the
// Eq. 12 head in one nn.MLP.ApplyWS call (see ScoreBatch). Eq. 11–12
// have that one implementation: a pseudo-candidate pair is a one-pair ScoreBatch
// (transAdapter.Score), and phase-2 training reads its feature rows from
// one-pair calls to the feature passes (foldFeatures). The
// route-materialising TransScore they replaced is the test oracle
// (transref_test.go), equal with == because row-at-a-time and batched
// matrix products accumulate each output row in the same order.
type session struct {
	m *Model

	n    int       // points absorbed so far
	embW []float64 // n×d raw point embeddings
	ctxW []float64 // n×d context-aware representations (Eq. 6)

	// ctxKeys caches the key-side attention state of Eq. 6 over embW; a
	// streaming session grows it by one row per push (extend). Derived
	// state, like keys below; nil in a session filled whole.
	ctxKeys *nn.AttKeys

	// obsCtx is ctx·W1_ctx, the per-point half of Eq. 7's first layer
	// (n×d; see Model.obsImplicit).
	obsCtx []float64

	// keys caches the key-side attention state of Eq. 9 over the first
	// keysN point embeddings, shared by every road-relevance row; grown by
	// the new points' rows when the trajectory has grown (ensureKeys).
	keys  *nn.AttKeys
	keysN int

	// transVal is emb·W1_x, the per-point half of Eq. 10's first layer
	// (keysN×d; see roadProbRows). Grown with the keys.
	transVal []float64

	// roadP caches Eq. 10 per segment for the current keys; nil while
	// the session holds no table. A session filled whole keeps the table
	// it borrowed until releaseTable (the shortcut pass and later steps
	// hit it); a causal one, whose every push invalidates it, hands it
	// back at the end of each scoring call.
	roadP *roadTable
	whole bool

	// obsZ caches, per point, the softmax denominator over the
	// candidate pool (Eq. 7 normalizes P_O across the candidate roads
	// of the point); obsMax the max score for stable exponentials.
	obsZ   []float64
	obsMax []float64

	// span, when non-nil, is the request's match span; observation-
	// scoring wall-clock accumulates into obsT (first call stamped in
	// obsT0) and MatchContext emits it as one "observation" child span.
	// Candidates runs sequentially on the match goroutine, so plain
	// fields suffice.
	span  *obs.Span
	obsT0 time.Time
	obsT  float64
}

// newSession fills a session with the whole trajectory at once: Eq. 6
// for every point in one batched self-attention pass over all of them,
// and the Eq. 9 keys once. The model must have frozen embeddings
// (RefreshEmbeddings).
func (m *Model) newSession(ct traj.CellTrajectory) *session {
	n, d := len(ct), m.Cfg.Dim
	s := &session{
		m:      m,
		whole:  true,
		n:      n,
		embW:   make([]float64, n*d),
		ctxW:   make([]float64, n*d),
		obsCtx: make([]float64, n*d),
		obsZ:   make([]float64, n),
		obsMax: make([]float64, n),
	}
	for i, cp := range ct {
		copy(s.row(s.embW, i), m.towerEmb(cp.Tower))
	}
	ws := nn.GetWorkspace()
	copy(s.ctxW, m.ObsAtt.SelfApplyAllWS(ws, s.rows(s.embW)).W)
	nn.PutWorkspace(ws)
	m.obsCtxInto(s.rows(s.obsCtx), s.rows(s.ctxW))
	s.ensureKeys()
	return s
}

// rows views one of the session's flat n×d arrays as a matrix.
func (s *session) rows(w []float64) *nn.Mat {
	return &nn.Mat{R: s.n, C: s.m.Cfg.Dim, W: w[:s.n*s.m.Cfg.Dim]}
}

// row returns point i's row of one of the flat n×d arrays.
func (s *session) row(w []float64, i int) []float64 {
	d := s.m.Cfg.Dim
	return w[i*d : (i+1)*d]
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

// softmaxP1Into sets dst[r] to softmaxP1(logits[2r], logits[2r+1]) for
// every r, bit for bit, with one exponential per row and all of them in
// one nn.ExpInto call. softmaxP1 takes math.Exp of each logit minus the
// larger one mx, and for a finite mx, math.Exp(mx−mx) is exactly 1: the
// row is 1/(e0+1) when l1 > l0 and e1/(1+e1) otherwise, e0 and e1 the
// same exponentials of the same differences. A row with a non-finite
// logit goes through softmaxP1 itself.
func softmaxP1Into(dst, logits []float64) {
	for r := range dst {
		if l0, l1 := logits[2*r], logits[2*r+1]; l1 > l0 {
			dst[r] = l0 - l1
		} else {
			dst[r] = l1 - l0
		}
	}
	nn.ExpInto(dst, dst)
	for r, e := range dst {
		switch l0, l1 := logits[2*r], logits[2*r+1]; {
		case !isFinite(l0) || !isFinite(l1):
			dst[r] = softmaxP1(l0, l1)
		case l1 > l0:
			dst[r] = 1 / (e + 1)
		default:
			dst[r] = e / (1 + e)
		}
	}
}

// roadProbRows evaluates Eq. 10 for every segment of segs into probs:
// the likelihood that the road belongs to this trajectory. It is the
// only inference implementation of Eq. 9–10; the step fill scores here
// for matching and for the phase-2 training features alike.
//
// TransMLP's first layer is factored over its [segEmb(s) ; x_l(s)]
// input, W1 = [W1_seg ; W1_x], and the Eq. 9 read-out is linear in its
// values, x_l(s) = Σ_i w_i(s)·e_i, so
//
//	x_l(s)·W1_x = Σ_i w_i(s)·(e_i·W1_x)
//
// and the hidden row is ReLU(transSeg[s] + Σ_i w_i(s)·transVal[i]):
// the per-segment table and query score frozen by RefreshEmbeddings,
// the trajectory's transVal, a softmax over the n keys and n·d
// multiply-adds — no d×h query projection and no 2d×d product per
// segment. Four segments at a time, the weights go into a 4×n block and
// the table rows into a 4×d block, nn.MatMulAddInto adds the weights
// times transVal to the table rows, and nn.Linear.ApplyReLU2Rows reads
// the block's logits out; no segments×d matrix exists, and the softmax
// of every segment's logits is one softmaxP1Into call. Only the
// association of the first-layer sum differs from TransMLP.Apply over
// explicit [segEmb ; TransAtt read-out] rows. The keys must be current
// (ensureKeys); ws is not Reset.
func (s *session) roadProbRows(ws *nn.Workspace, segs []roadnet.SegmentID, probs []float64) {
	m, d, n := s.m, s.m.Cfg.Dim, s.keysN
	w := ws.Take(4, n)
	hid := ws.Take(4, d)
	logits := ws.TakeVec(2 * len(segs))
	val := &nn.Mat{R: n, C: d, W: s.transVal[:n*d]}
	for r0 := 0; r0 < len(segs); r0 += 4 {
		block := segs[r0:min(r0+4, len(segs))]
		for r, sid := range block {
			s.keys.WeightsInto(w.Row(r), m.transQ[sid])
			copy(hid.Row(r), m.transSeg.Row(int(sid)))
		}
		h := hid.Rows(0, len(block))
		nn.MatMulAddInto(h, w.Rows(0, len(block)), val)
		m.TransMLP.Layers[1].ApplyReLU2Rows(logits[2*r0:], h)
	}
	softmaxP1Into(probs[:len(segs)], logits)
}

// roadTable is the segment-indexed Eq. 10 cache (12 bytes per segment):
// p[s] is current while stamp[s] >= base. cur — the largest stamp in use
// — advances once per ScoreBatch step, so inside a step stamp[s] == cur
// also says "this step already referenced s", queued for its fill or
// counted as a hit; lifting base to a fresh cur invalidates every entry
// in O(1). Tables are pooled across sessions and invalidated on the way
// out of the pool, so an idle streaming session pins no |S|-sized array.
type roadTable struct {
	p         []float64
	stamp     []uint32
	base, cur uint32
}

var roadTablePool sync.Pool // *roadTable

// advance starts a new stamp value; when the counter would wrap, the
// stamps are cleared and counting restarts (the cache empties).
func (t *roadTable) advance() {
	if t.cur == math.MaxUint32 {
		clear(t.stamp)
		t.base, t.cur = 1, 0
	}
	t.cur++
}

func (t *roadTable) invalidate() {
	t.advance()
	t.base = t.cur
}

// table returns the session's road-probability table, borrowing an empty
// one from the pool when it holds none.
func (s *session) table() *roadTable {
	if s.roadP == nil {
		t, _ := roadTablePool.Get().(*roadTable)
		if nSegs := s.m.Net.NumSegments(); t == nil || len(t.p) < nSegs {
			t = &roadTable{p: make([]float64, nSegs), stamp: make([]uint32, nSegs)}
		}
		t.invalidate()
		s.roadP = t
	}
	return s.roadP
}

// releaseTable hands the table back to the pool: MatchContext and
// transFuseExamples when they are done with a whole-trajectory session,
// every scoring call of a causal one.
func (s *session) releaseTable() {
	if s.roadP != nil {
		roadTablePool.Put(s.roadP)
		s.roadP = nil
	}
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
	for _, sid := range m.Graph.TopCoRoads(ct[i].Tower, m.Cfg.CoPool) {
		if !slices.Contains(pool, sid) {
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
	s.extend(ct)
	pool := s.m.candidatePool(ct, i)
	if len(pool) == 0 {
		return nil // a dead point: the matcher's OnBreak policy owns it
	}
	cands := poolCandidates(s.m.Net, ct[i].P, pool)
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	scores := ws.TakeVec(len(cands))
	var t time.Time
	if s.span != nil {
		t = time.Now()
		if s.obsT0.IsZero() {
			s.obsT0 = t
		}
	}
	s.m.obsScoreBatchCtx(ws, ct[i].Tower, s.row(s.obsCtx, i), cands, scores)
	if s.span != nil {
		s.obsT += time.Since(t).Seconds()
	}
	// Across-pool softmax with cached normalizer so shortcut
	// pseudo-candidates score consistently later (selectTopK returns
	// the pool max and normalizer it used).
	out, mx, z := selectTopK(cands, scores, k)
	s.obsMax[i], s.obsZ[i] = mx, z
	return out
}

// Score implements hmm.ObservationModel for arbitrary candidates — a
// shortcut pseudo-candidate on a road the point's layer does not hold:
// a one-row call into the pool-scoring kernel, normalized by the
// point's cached pool softmax, so a layer candidate scores its Obs.
func (s *session) Score(ct traj.CellTrajectory, i int, c *hmm.Candidate) float64 {
	s.extend(ct)
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	one := [1]hmm.Candidate{*c}
	sc := ws.TakeVec(1)
	s.m.obsScoreBatchCtx(ws, ct[i].Tower, s.row(s.obsCtx, i), one[:], sc)
	if s.obsZ[i] == 0 {
		// Candidates was never called for this point (single-point
		// trajectories bypass transitions); fall back to the sigmoid.
		return 1 / (1 + math.Exp(-sc[0]))
	}
	return math.Exp(sc[0]-s.obsMax[i]) / s.obsZ[i]
}

// foldAcc is what ScoreBatch's fold knows about a route prefix: Eq. 11's
// numerator, the turn sum, the bearing of the last segment taken and the
// number of segments.
type foldAcc struct {
	sum, turn, last float64
	segs            int32
}

// over continues the prefix over one more segment with road probability
// p and the given bearing — the same additions, in the same order, as
// walking the materialized route from its first segment.
func (v foldAcc) over(p, bearing float64) foldAcc {
	return foldAcc{sum: v.sum + p, turn: v.turn + geoAngleDiff(v.last, bearing), last: bearing, segs: v.segs + 1}
}

// foldScratch is one ScoreBatch step's scratch: the node-indexed
// accumulators (32·|N| bytes) and the step-sized lists. Pooled and held
// for one call, so no session pins one.
type foldScratch struct {
	acc   []foldAcc
	kind  []pairKind          // per pair
	dist  []float64           // per pair: tree distance of a tree pair
	steps []roadnet.TreeStep  // every from-candidate's tree steps, back to back
	ends  []int               // ends[a] = end of from-candidate a's steps
	tgt   []roadnet.NodeID    // one from-candidate's tree targets,
	tdist []float64           // and what TreeWalk says of them
	need  []roadnet.SegmentID // segments the step's fill has to score
}

var foldPool sync.Pool // *foldScratch

// pairKind orders the cases of a candidate pair exactly as
// Router.RouteBetween does: both on one segment with b ahead (the route
// is that segment), a's segment ending where b's starts (the two
// segments), otherwise a's segment, the shortest path from its end node
// to the start node of b's, and b's segment.
type pairKind uint8

const (
	pairSame pairKind = iota
	pairAdjacent
	pairTree
)

func kindOf(a, b *hmm.Candidate, segA, segB *roadnet.Segment) pairKind {
	switch {
	case a.Seg == b.Seg && b.Frac >= a.Frac:
		return pairSame
	case segA.To == segB.From:
		return pairAdjacent
	}
	return pairTree
}

// foldFeatures is ScoreBatch's feature passes: the Eq. 12 input
// [Eq. 11 mean road relevance, length similarity, turn similarity] of
// every pair of the fan-out from → to into point i, as the rows of an
// (|from|·|to|)×3 matrix taken from ws, without materializing a route.
// out doubles as the reachability mask: NaN where the pair is
// unreachable (its row is zero), 0 elsewhere. Everything Eq. 12 reads
// off a route is a left-to-right fold over its segments, and the routes
// out of one from-candidate share a shortest-path tree, so it runs in
// three passes:
//
//   - discover: one Router.TreeWalk per from-candidate yields the tree
//     distance of each of its targets and the union of their paths as
//     parent-first steps; every segment on a reachable pair's route is
//     queued once for Eq. 10 unless the table already holds it;
//   - fill: one roadProbRows call over the queue;
//   - fold: per from-candidate, seed its end node with its own segment
//     and scan its steps once, acc[node] = acc[parent].over(segment);
//     each target reads its start node's accumulator and closes it with
//     its own segment.
//
// The fold accumulates source→target, the order of the route itself, so
// every row is bit-identical to the one walking the materialized route
// gives. Two from-candidates ending at one node are folded separately:
// their seeds differ, and sharing would re-associate the sums. The
// fold writes each reachable pair's two explicit-similarity exponents
// into a 2·|pairs| vector, and one nn.ExpInto call turns them into the
// rows' length and turn similarities.
func (s *session) foldFeatures(ws *nn.Workspace, ct traj.CellTrajectory, i int, from, to []hmm.Candidate, out []float64) *nn.Mat {
	s.extend(ct)
	s.ensureKeys()
	net := s.m.Net
	nTo := len(to)
	nPairs := len(from) * nTo
	straight := ct[i-1].P.Dist(ct[i].P)
	feat := ws.Take(nPairs, 3)
	sims := ws.TakeVec(2 * nPairs)

	fs, _ := foldPool.Get().(*foldScratch)
	if fs == nil || len(fs.acc) < net.NumNodes() {
		fs = &foldScratch{acc: make([]foldAcc, net.NumNodes())}
	}
	defer foldPool.Put(fs)
	fs.kind = slices.Grow(fs.kind[:0], nPairs)[:nPairs]
	fs.dist = slices.Grow(fs.dist[:0], nPairs)[:nPairs]
	kind, dist := fs.kind, fs.dist
	steps, ends, need := fs.steps[:0], fs.ends[:0], fs.need[:0]

	// Without the implicit feature no road probability is read: P stays
	// nil and is never indexed.
	implicit := !s.m.Cfg.DisableImplicitTrans
	var tab *roadTable
	var P []float64
	if implicit {
		tab = s.table()
		if !s.whole {
			defer s.releaseTable()
		}
		tab.advance()
		P = tab.p
	}
	hits := 0
	// touch notes that the step reads segment sid's road probability.
	touch := func(sid roadnet.SegmentID) {
		switch st := tab.stamp[sid]; {
		case st == tab.cur:
			return
		case st >= tab.base:
			hits++
		default:
			need = append(need, sid)
		}
		tab.stamp[sid] = tab.cur
	}

	// Discover. out doubles as the reachability mask (NaN = unreachable);
	// only a tree pair can be unreachable.
	unreachable := 0
	for a := range from {
		segA := net.Segment(from[a].Seg)
		tgt := fs.tgt[:0]
		for b := range to {
			segB := net.Segment(to[b].Seg)
			k := kindOf(&from[a], &to[b], segA, segB)
			kind[a*nTo+b] = k
			if k == pairTree {
				tgt = append(tgt, segB.From)
			}
		}
		fs.tgt = tgt
		if len(tgt) > 0 {
			n0 := len(steps)
			fs.tdist = slices.Grow(fs.tdist[:0], len(tgt))[:len(tgt)]
			steps = s.m.Router.TreeWalk(segA.To, tgt, fs.tdist, steps)
			if implicit {
				for _, st := range steps[n0:] {
					touch(st.Seg)
				}
			}
		}
		ends = append(ends, len(steps))
		reached, ti := false, 0
		for b := range to {
			p := a*nTo + b
			if kind[p] == pairTree {
				dist[p] = fs.tdist[ti]
				ti++
				if math.IsInf(dist[p], 1) {
					out[p] = math.NaN()
					unreachable++
					continue
				}
			}
			out[p] = 0
			reached = true
			if implicit {
				touch(to[b].Seg)
			}
		}
		if reached && implicit {
			touch(from[a].Seg)
		}
	}
	fs.steps, fs.ends, fs.need = steps, ends, need
	roadnet.CountRoutes(nPairs, unreachable)

	// Fill.
	if implicit {
		obsRoadProbHits.Add(int64(hits))
		obsRoadProbMiss.Add(int64(len(need)))
		if len(need) > 0 {
			probs := ws.TakeVec(len(need))
			s.roadProbRows(ws, need, probs)
			for r, sid := range need {
				P[sid] = probs[r]
			}
		}
	}

	// Fold.
	acc := fs.acc
	lo := 0
	for a := range from {
		segA := net.Segment(from[a].Seg)
		head := (1 - from[a].Frac) * segA.Length // remaining length of a's segment
		seed := foldAcc{last: net.Bearing(from[a].Seg), segs: 1}
		if implicit {
			seed.sum = P[from[a].Seg]
		}
		acc[segA.To] = seed
		for _, st := range steps[lo:ends[a]] {
			var p float64
			if implicit {
				p = P[st.Seg]
			}
			acc[st.Node] = acc[st.Parent].over(p, net.Bearing(st.Seg))
		}
		lo = ends[a]
		for b := range to {
			p := a*nTo + b
			row := feat.Row(p)
			if math.IsNaN(out[p]) {
				row[0], row[1], row[2] = 0, 0, 0
				sims[2*p], sims[2*p+1] = 0, 0 // unread; finite keeps the block on the kernel
				continue
			}
			var pB float64
			if implicit {
				pB = P[to[b].Seg]
			}
			segB := net.Segment(to[b].Seg)
			tail := to[b].Frac * segB.Length // consumed length of b's segment
			route, d := seed, 0.0
			switch kind[p] {
			case pairSame:
				d = (to[b].Frac - from[a].Frac) * segA.Length
			case pairAdjacent:
				route, d = seed.over(pB, net.Bearing(to[b].Seg)), head+tail
			case pairTree:
				route, d = acc[segB.From].over(pB, net.Bearing(to[b].Seg)), head+dist[p]+tail
			}
			row[0] = 0.5
			if implicit {
				row[0] = route.sum / float64(route.segs)
			}
			// Eq. 12's length and turn similarities are the exponentials
			// of these.
			sims[2*p], sims[2*p+1] = -math.Abs(straight-d)/500, -route.turn/math.Pi
		}
	}
	nn.ExpInto(sims, sims)
	for p := range nPairs {
		if !math.IsNaN(out[p]) {
			row := feat.Row(p)
			row[1], row[2] = sims[2*p], sims[2*p+1]
		}
	}
	return feat
}

// ScoreBatch implements hmm.TransitionBatchModel: the whole k×k
// transition fan-out of one Viterbi step, its feature rows from
// foldFeatures, Eq. 12's logits from one nn.MLP.ApplyWS call over
// the (k·k)×3 rows and its softmax from one softmaxP1Into call.
// NaN in out is the unreachable sentinel of the batch protocol, so a
// learned score that itself comes out non-finite (corrupt weights, a NaN
// that slipped past load validation, fault injection) must be caught
// here: it degrades to the explicit length-similarity feature — exactly
// the classical Eq. 3 exponential with β=500, already computed into the
// feature row — instead of silently reading as "unreachable" and
// breaking the chain. The return value counts those degraded scores.
func (s *session) ScoreBatch(ct traj.CellTrajectory, i int, from, to []hmm.Candidate, out []float64) (degraded int) {
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	feat := s.foldFeatures(ws, ct, i, from, to, out)
	nPairs := feat.R
	logits := s.m.TransFuse.ApplyWS(ws, feat) // nPairs×2
	probs := ws.TakeVec(nPairs)
	softmaxP1Into(probs, logits.W)
	g := s.m.transGamma.W.W[0]
	for p, pr := range probs {
		if math.IsNaN(out[p]) {
			continue
		}
		if g != 1 {
			pr = math.Pow(pr, g)
		}
		if fpBatchNaN.Fail() {
			pr = math.NaN()
		}
		if math.IsNaN(pr) || math.IsInf(pr, 0) {
			degraded++
			if pr = feat.Row(p)[1]; math.IsNaN(pr) || math.IsInf(pr, 0) {
				pr = math.NaN()
			}
		}
		out[p] = pr
	}
	obsTransBatched.Add(int64(nPairs))
	return degraded
}

// transAdapter exposes the session's transition scoring under the
// hmm.TransitionModel method names (the session's own Score is taken by
// hmm.ObservationModel).
type transAdapter struct{ s *session }

// Score is the one-pair ScoreBatch, for a shortcut pseudo-candidate
// outside the layer (the shortcut pass reads every other pair from the
// step tables). A degraded pair comes back NaN, so the matcher counts it
// and applies its own Eq. 3 fallback, the same exponential.
func (t transAdapter) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	a, b := [1]hmm.Candidate{*from}, [1]hmm.Candidate{*to}
	var out [1]float64
	if t.s.ScoreBatch(ct, i, a[:], b[:], out[:]) > 0 {
		return math.NaN(), true
	}
	return out[0], !math.IsNaN(out[0])
}

// ScoreBatch forwards the batched fast path (hmm.TransitionBatchModel).
func (t transAdapter) ScoreBatch(ct traj.CellTrajectory, i int, from, to []hmm.Candidate, out []float64) int {
	return t.s.ScoreBatch(ct, i, from, to, out)
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
	defer sess.releaseTable()
	if msp != nil {
		msp.ChildAt("session_init", spanT, time.Since(spanT))
		sess.span = msp
	}
	// Sanitization already ran above (session state must align with
	// what the matcher sees); do not re-run it inside.
	matcher := m.streamMatcher(sess, m.Cfg.OnBreak, traj.SanitizeOff)
	matcher.Cfg.Trace = m.Cfg.Trace
	matcher.Cfg.Explain = m.Cfg.Explain
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
	if msp != nil {
		msp.SetAttr("degraded", res.Degraded)
		msp.SetAttr("gaps", len(res.Gaps))
	}
	obsCoreMatches.Inc()
	return res, nil
}
