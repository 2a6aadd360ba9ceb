package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/cellular"
	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/traj"
)

// The scoring path batches its exponentials through nn.ExpInto and reads
// the Eq. 8 and Eq. 12 fuse heads through nn.MLP.ApplyWS, whose
// two-class form folds the last ReLU into ApplyReLU2Rows. These tests
// hold it bit for bit to the scalar loops it replaced, kept below: the
// fold's explicit similarities (explicitSims, through the route-walking
// oracle transFeatures), the fuse of ScoreBatch (the allocating
// MLP.Apply, a ReLU pass and a product per layer, and softmaxP1 per
// pair), selectTopK's exp loop and the pool fuse of obsScoreBatchCtx.

// refScoreBatch is ScoreBatch as it was: the fuse MLP layer by layer
// (MLP.Apply) and one softmaxP1 per reachable pair.
func (s *session) refScoreBatch(ct traj.CellTrajectory, i int, from, to []hmm.Candidate, out []float64) (degraded int) {
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	feat := s.foldFeatures(ws, ct, i, from, to, out)
	logits := s.m.TransFuse.Apply(feat) // nPairs×2
	g := s.m.transGamma.W.W[0]
	nPairs := feat.R
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
			degraded++
			if pr = feat.Row(p)[1]; math.IsNaN(pr) || math.IsInf(pr, 0) {
				pr = math.NaN()
			}
		}
		out[p] = pr
	}
	return degraded
}

// refObsScoreBatchCtx is obsScoreBatchCtx as it was: the one-row Eq. 7
// loop, gaussDist per candidate and the fuse MLP layer by layer.
func (m *Model) refObsScoreBatchCtx(ws *nn.Workspace, tower cellular.TowerID, ctxHalf []float64, cands []hmm.Candidate, scores []float64) {
	p := len(cands)
	imp := ws.TakeVec(p)
	m.refObsImplicit(ws, ctxHalf, cands, imp)
	fuse := ws.Take(p, 3)
	for j := range cands {
		row := fuse.Row(j)
		row[0] = imp[j]
		row[1] = m.gaussDist(cands[j].Dist)
		row[2] = m.Graph.CoOccurrenceNorm(tower, cands[j].Seg)
	}
	logits := m.ObsFuse.Apply(fuse) // p×2
	for j := 0; j < p; j++ {
		lr := logits.Row(j)
		scores[j] = lr[1] - lr[0]
	}
}

// refPoolSoftmax is selectTopK's exp loop as it was: each candidate's
// Obs is its softmax over the pool's scores; it returns the pool's max
// and normalizer.
func refPoolSoftmax(cands []hmm.Candidate, scores []float64) (float64, float64) {
	mx := scores[0]
	for _, v := range scores[1:] {
		if v > mx {
			mx = v
		}
	}
	var z float64
	for j, v := range scores {
		e := math.Exp(v - mx)
		cands[j].Obs = e
		z += e
	}
	for j := range cands {
		cands[j].Obs /= z
	}
	return mx, z
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestScoringMatchesScalarLoops drives a session filled whole and a
// streamed one through a trip's first steps at dims 128 and 37 and
// holds, per step, the pool scores, the pool softmax, every reachable
// pair's features and the transition scores to the scalar loops bit for
// bit — the scores also with core.trans.nan armed, where the degraded
// count must match too.
func TestScoringMatchesScalarLoops(t *testing.T) {
	models, ct := rowKernelModels(t)
	ws, ows := nn.GetWorkspace(), nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	defer nn.PutWorkspace(ows)
	defer faultinject.DisarmAll()
	for _, dim := range []int{128, 37} {
		m := models[dim]
		whole, stream := m.newSession(ct), &session{m: m}
		wholeOracle, streamOracle := m.newSession(ct), &session{m: m}
		for i := 1; i < len(ct) && i <= 3; i++ {
			seen := ct[:i+1]
			stream.extend(seen)
			streamOracle.extend(seen)
			streamOracle.ensureKeys()
			for _, s := range []struct {
				name   string
				sess   *session
				ct     traj.CellTrajectory
				oracle *session
			}{{"batch", whole, ct, wholeOracle}, {"stream", stream, seen, streamOracle}} {
				what := fmt.Sprintf("dim %d, %s, step %d", dim, s.name, i)
				sess := s.sess

				// Eq. 8 over the pool, and the pool softmax of selectTopK.
				pool := poolCandidates(m.Net, ct[i].P, m.candidatePool(ct, i))
				ws.Reset()
				half := sess.row(sess.obsCtx, i)
				got, want := ws.TakeVec(len(pool)), ws.TakeVec(len(pool))
				m.obsScoreBatchCtx(ws, ct[i].Tower, half, pool, got)
				m.refObsScoreBatchCtx(ws, ct[i].Tower, half, pool, want)
				sameFloats(t, what+", pool scores", got, want)
				refCands := append([]hmm.Candidate(nil), pool...)
				wantMx, wantZ := refPoolSoftmax(refCands, want)
				top, mx, z := selectTopK(pool, got, m.Cfg.K)
				if !sameBits(mx, wantMx) || !sameBits(z, wantZ) {
					t.Fatalf("%s: pool max and normalizer (%v, %v), exp loop (%v, %v)", what, mx, z, wantMx, wantZ)
				}
				for _, c := range top {
					for _, r := range refCands {
						if r.Seg == c.Seg && !sameBits(c.Obs, r.Obs) {
							t.Fatalf("%s: segment %d has Obs %v, exp loop %v", what, c.Seg, c.Obs, r.Obs)
						}
					}
				}

				// The fold's features against the route-walking oracle.
				from, to := sess.Candidates(s.ct, i-1, m.Cfg.K), sess.Candidates(s.ct, i, m.Cfg.K)
				straight := ct[i-1].P.Dist(ct[i].P)
				ws.Reset()
				mask := make([]float64, len(from)*len(to))
				feat := sess.foldFeatures(ws, s.ct, i, from, to, mask)
				var oracleRows [][3]float64
				for a := range from {
					for b := range to {
						if math.IsNaN(mask[a*len(to)+b]) {
							oracleRows = append(oracleRows, [3]float64{})
							continue
						}
						route, ok := m.Router.RouteBetween(from[a].Pos(), to[b].Pos())
						if !ok || len(route.Segs) == 0 {
							t.Fatalf("%s: pair (%d, %d) reachable in the fold, not routed", what, a, b)
						}
						oracleRows = append(oracleRows, s.oracle.transFeatures(ows, route, straight))
					}
				}
				streamOracle.releaseTable()
				for p := range oracleRows {
					sameFloats(t, fmt.Sprintf("%s, pair %d features", what, p), feat.Row(p), oracleRows[p][:])
				}

				// Eq. 12 and the degraded fallback, healthy and poisoned.
				for _, spec := range []string{"", "core.trans.nan:3"} {
					score := func(f func(traj.CellTrajectory, int, []hmm.Candidate, []hmm.Candidate, []float64) int) ([]float64, int) {
						faultinject.DisarmAll()
						if err := faultinject.Arm(spec); err != nil {
							t.Fatal(err)
						}
						out := make([]float64, len(from)*len(to))
						return out, f(s.ct, i, from, to, out)
					}
					gotOut, gotDeg := score(sess.ScoreBatch)
					wantOut, wantDeg := score(sess.refScoreBatch)
					faultinject.DisarmAll()
					sameFloats(t, fmt.Sprintf("%s, faults %q, scores", what, spec), gotOut, wantOut)
					if gotDeg != wantDeg || spec != "" && gotDeg == 0 {
						t.Fatalf("%s, faults %q: %d degraded, the scalar loop %d", what, spec, gotDeg, wantDeg)
					}
				}
			}
		}
		whole.releaseTable()
		wholeOracle.releaseTable()
	}
}

// TestSoftmaxP1IntoMatchesSoftmaxP1 holds the one-exponential two-logit
// softmax to softmaxP1 bit for bit on logits that are ordinary, equal,
// signed zeros, differ by more than ±700 (where the exponential leaves
// the kernel's range or underflows), or hold NaN or ±Inf, in every
// combination, at row counts that fill whole blocks of four and tails.
func TestSoftmaxP1IntoMatchesSoftmaxP1(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	vals := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 3e-9, 350, -350, 701, -701, 800, -1e300, 1e300,
		math.MaxFloat64, -math.MaxFloat64, inf, -inf, nan}
	var logits []float64
	for _, a := range vals {
		for _, b := range vals {
			logits = append(logits, a, b)
		}
	}
	for _, n := range []int{1, 3, 4, 5, 8, len(logits) / 2} {
		for lo := 0; lo+n <= len(logits)/2; lo += n {
			l := logits[2*lo : 2*(lo+n)]
			got := make([]float64, n)
			softmaxP1Into(got, l)
			for r := range got {
				if want := softmaxP1(l[2*r], l[2*r+1]); !sameBits(got[r], want) {
					t.Fatalf("softmax of (%v, %v) is %v, softmaxP1 %v", l[2*r], l[2*r+1], got[r], want)
				}
			}
		}
	}
}
