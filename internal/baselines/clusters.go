package baselines

import (
	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/mrg"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// clstersMethod implements CLSTERS [41]: error reduction by calibrating
// each trajectory point toward its historical anchor — the
// co-occurrence-weighted centroid of the roads the point's tower has
// historically matched — before running a standard HMM. This captures
// the system's defining "calibrate, then match" structure using the
// same historical data the other learning methods see.
type clstersMethod struct {
	net     *roadnet.Network
	graph   *mrg.Graph
	matcher *hmm.Matcher
	// blend is how far a point moves toward its anchor (0 = off,
	// 1 = fully replaced).
	blend float64
}

// NewCLSTERS builds CLSTERS over the historical co-occurrence graph.
func NewCLSTERS(net *roadnet.Network, router *roadnet.Router, graph *mrg.Graph, cfg CommonConfig) Method {
	return &clstersMethod{
		net:     net,
		graph:   graph,
		matcher: NewMatcher(net, router, cfg, 0, nil, nil),
		blend:   0.5,
	}
}

func (c *clstersMethod) Name() string { return "CLSTERS" }

func (c *clstersMethod) Match(ct traj.CellTrajectory) (*Output, error) {
	calibrated := make(traj.CellTrajectory, len(ct))
	copy(calibrated, ct)
	for i := range calibrated {
		if anchor, ok := c.anchor(calibrated[i].Tower); ok {
			calibrated[i].P = calibrated[i].P.Lerp(anchor, c.blend)
		}
	}
	res, err := c.matcher.Match(calibrated)
	if err != nil {
		return nil, err
	}
	return resultToOutput(res), nil
}

// anchor returns the co-occurrence-weighted centroid of the tower's
// historical roads.
func (c *clstersMethod) anchor(t cellular.TowerID) (geo.Point, bool) {
	roads := c.graph.TopCoRoads(t, 8)
	if len(roads) == 0 {
		return geo.Point{}, false
	}
	var sum geo.Point
	var wSum float64
	for _, sid := range roads {
		w := c.graph.CoOccurrence(t, sid)
		if w <= 0 {
			continue
		}
		mid := c.net.Segment(sid).Midpoint()
		sum = sum.Add(mid.Scale(w))
		wSum += w
	}
	if wSum == 0 {
		return geo.Point{}, false
	}
	return sum.Scale(1 / wSum), true
}
