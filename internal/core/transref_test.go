package core

import (
	"math"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// The route-materialising transition path, kept verbatim as the oracle
// ScoreBatch's fold is held to with ==: TransScore routes each pair with
// Router.RouteBetween, reads Eq. 10 per route segment through the
// one-row roadProb, assembles the Eq. 12 input walking the route
// (transFeatures, routeSims) and fuses one row (fuseTrans). It shares
// the Eq. 9–10 kernel (roadProbRows) and the Eq. 12 MLP with the fold,
// nothing else.

// roadProb evaluates Eq. 10 with caching, memoized per segment in the
// table ScoreBatch fills, until the keys grow. A miss Resets ws —
// callers must not hold live workspace buffers across it.
func (s *session) roadProb(ws *nn.Workspace, sid roadnet.SegmentID) float64 {
	t := s.table()
	if t.stamp[sid] >= t.base {
		obsRoadProbHits.Inc()
		return t.p[sid]
	}
	obsRoadProbMiss.Inc()
	ws.Reset()
	s.roadProbRows(ws, []roadnet.SegmentID{sid}, t.p[sid:sid+1])
	t.stamp[sid] = t.cur
	return t.p[sid]
}

// transFeatures assembles the Eq. 12 input for a movement along the
// given route: [implicit route relevance (Eq. 11), length similarity,
// turn similarity]. straight is the hoisted straight-line distance
// between the step's two points (identical for every pair of the
// step's fan-out). The keys must be current (ensureKeys).
func (s *session) transFeatures(ws *nn.Workspace, route roadnet.Route, straight float64) [3]float64 {
	var pRoute float64
	if s.m.Cfg.DisableImplicitTrans {
		pRoute = 0.5
	} else {
		var sum float64
		for _, sid := range route.Segs {
			sum += s.roadProb(ws, sid)
		}
		pRoute = sum / float64(len(route.Segs))
	}
	lenSim, turnSim := routeSims(s.m.Net, route, straight)
	return [3]float64{pRoute, lenSim, turnSim}
}

// TransScore is the learned transition probability of Eq. 12 for one
// pair, over its materialized route.
func (s *session) TransScore(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	s.extend(ct)
	route, ok := s.m.Router.RouteBetween(from.Pos(), to.Pos())
	if !ok || len(route.Segs) == 0 {
		return 0, false
	}
	s.ensureKeys()
	if !s.whole {
		defer s.releaseTable()
	}
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	f := s.transFeatures(ws, route, ct[i-1].P.Dist(ct[i].P))
	return s.m.fuseTrans(ws, f), true
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

// explicitSims maps a route's length and turn sum to the two explicit
// Eq. 12 features; straight is the straight-line distance between the
// step's points. It is the scalar form foldFeatures batches through
// nn.ExpInto.
func explicitSims(straight, dist, turn float64) (lenSim, turnSim float64) {
	return math.Exp(-math.Abs(straight-dist) / 500), math.Exp(-turn / math.Pi)
}

// routeSims computes the explicit Eq. 12 features of a route: length
// similarity against the straight-line distance and turn similarity
// over consecutive segment bearings.
func routeSims(net *roadnet.Network, route roadnet.Route, straight float64) (lenSim, turnSim float64) {
	var turn, prev float64
	for j, sid := range route.Segs {
		b := net.Bearing(sid)
		if j > 0 {
			turn += geoAngleDiff(prev, b)
		}
		prev = b
	}
	return explicitSims(straight, route.Dist, turn)
}
