package baselines

import (
	"math"

	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// CommonConfig holds the knobs shared by the HMM-family baselines.
type CommonConfig struct {
	// K is the candidate count per point (§V-A2: 45 for baselines).
	K int
	// Sigma is the observation Gaussian σ₁ in meters.
	Sigma float64
	// Beta is the transition scale σ₂ in meters.
	Beta float64
}

// withDefaults fills zero fields with cellular-scale defaults.
func (c CommonConfig) withDefaults() CommonConfig {
	if c.K <= 0 {
		c.K = 45
	}
	if c.Sigma <= 0 {
		c.Sigma = hmm.ClassicalSigma
	}
	if c.Beta <= 0 {
		c.Beta = hmm.ClassicalBeta
	}
	return c
}

// NewMatcher builds the HMM matcher every baseline runs: cfg's K
// candidates per point, shortcuts shortcut candidates (Algorithm 2),
// and the method's own observation and transition models. A nil obs
// is the classical Eq. 2 Gaussian with cfg's σ, a nil trans the
// classical Eq. 3 exponential with cfg's β; zero fields of cfg take
// the cellular-scale defaults.
func NewMatcher(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig, shortcuts int, obs hmm.ObservationModel, trans hmm.TransitionModel) *hmm.Matcher {
	cfg = cfg.withDefaults()
	if obs == nil {
		obs = &hmm.GaussianObservation{Net: net, Sigma: cfg.Sigma}
	}
	if trans == nil {
		trans = &hmm.ExponentialTransition{Router: router, Beta: cfg.Beta}
	}
	return &hmm.Matcher{
		Net:    net,
		Router: router,
		Obs:    obs,
		Trans:  trans,
		Cfg:    hmm.Config{K: cfg.K, Shortcuts: shortcuts},
	}
}

// NewClassical builds the classical distance-probability HMM (Eqs.
// 2–3), the non-learned reference point, named "HMM".
func NewClassical(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig) Method {
	return NewHMMMethod("HMM", NewMatcher(net, router, cfg, 0, nil, nil))
}

// stmTransition is ST-Matching's [8] transition: spatial analysis
// (straight-line over route length, favoring direct movements) times
// temporal analysis (implied speed vs. the route's speed limits).
type stmTransition struct {
	router *roadnet.Router
	net    *roadnet.Network
}

func (s *stmTransition) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	route, ok := s.router.RouteBetween(from.Pos(), to.Pos())
	if !ok {
		return 0, false
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	spatial := 1.0
	if route.Dist > 0 {
		spatial = math.Min(straight/route.Dist, 1)
	}
	temporal := speedSimilarity(s.net, route, ct[i].T-ct[i-1].T)
	return spatial * temporal, true
}

// speedSimilarity compares the speed implied by traversing the route in
// dt seconds with the route's mean free-flow speed (the cosine-style
// temporal analysis of STM).
func speedSimilarity(net *roadnet.Network, route roadnet.Route, dt float64) float64 {
	if dt <= 0 || len(route.Segs) == 0 {
		return 1
	}
	implied := route.Dist / dt
	var limit float64
	for _, sid := range route.Segs {
		limit += net.Segment(sid).Speed
	}
	limit /= float64(len(route.Segs))
	if implied == 0 || limit == 0 {
		return 1
	}
	return math.Min(implied, limit) / math.Max(implied, limit)
}

// NewSTM builds ST-Matching [8].
func NewSTM(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig) Method {
	return NewSTMWithShortcuts(net, router, cfg, 0)
}

// NewSTMWithShortcuts builds STM with the paper's shortcut structure
// grafted on (the STM+S ablation of Table III).
func NewSTMWithShortcuts(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig, shortcuts int) Method {
	name := "STM"
	if shortcuts > 0 {
		name = "STM+S"
	}
	return NewHMMMethod(name, NewMatcher(net, router, cfg, shortcuts, nil,
		&stmTransition{router: router, net: net}))
}

// ifmTransition extends STM with IF-Matching's [32] information fusion:
// an extra term rewarding consistency between the implied speed and the
// speeds of the specific roads traversed, sharpening ambiguous cases.
type ifmTransition struct {
	stm stmTransition
	net *roadnet.Network
}

func (f *ifmTransition) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	base, ok := f.stm.Score(ct, i, from, to)
	if !ok {
		return 0, false
	}
	// Moving-direction fusion: candidate segments should roughly agree
	// with the movement bearing of the trajectory.
	move := ct[i-1].P.Bearing(ct[i].P)
	diff := geo.AngleDiff(move, f.net.Segment(to.Seg).Bearing())
	directional := math.Max(0.1, math.Cos(diff/2))
	return base * directional, true
}

// NewIFM builds IF-Matching [32].
func NewIFM(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig) Method {
	return NewHMMMethod("IFM", NewMatcher(net, router, cfg, 0, nil,
		&ifmTransition{stm: stmTransition{router: router, net: net}, net: net}))
}

// mcmTransition implements MCM's [34] common-subsequence idea: a route
// is good when its heading profile agrees with the trajectory's
// movement (the longest common heading subsequence, approximated by the
// mean heading agreement along the route) and it stays reachable within
// a bounded detour.
type mcmTransition struct {
	router *roadnet.Router
	net    *roadnet.Network
}

func (m *mcmTransition) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	route, ok := m.router.RouteBetween(from.Pos(), to.Pos())
	if !ok {
		return 0, false
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	// Reachability bound: reject routes more than 3× the straight
	// distance plus slack (tracking multiple road candidates only while
	// they stay plausible).
	if route.Dist > 3*straight+800 {
		return 0, false
	}
	move := ct[i-1].P.Bearing(ct[i].P)
	var agree float64
	for _, sid := range route.Segs {
		diff := geo.AngleDiff(move, m.net.Segment(sid).Bearing())
		agree += math.Max(0, math.Cos(diff))
	}
	agree /= float64(len(route.Segs))
	lengthSim := math.Exp(-math.Abs(straight-route.Dist) / 600)
	return 0.5*agree + 0.5*lengthSim, true
}

// NewMCM builds MCM [34].
func NewMCM(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig) Method {
	return NewHMMMethod("MCM", NewMatcher(net, router, cfg, 0, nil,
		&mcmTransition{router: router, net: net}))
}

// snetTransition is SnapNet's [12] heuristic blend: the classical
// length-similarity term with direction agreement and a fewer-turns
// penalty.
type snetTransition struct {
	router *roadnet.Router
	net    *roadnet.Network
	beta   float64
}

func (s *snetTransition) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	route, ok := s.router.RouteBetween(from.Pos(), to.Pos())
	if !ok {
		return 0, false
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	lengthSim := math.Exp(-math.Abs(straight-route.Dist) / s.beta)
	var turns float64
	for j := 1; j < len(route.Segs); j++ {
		turns += geo.AngleDiff(s.net.Segment(route.Segs[j-1]).Bearing(), s.net.Segment(route.Segs[j]).Bearing())
	}
	fewerTurns := math.Exp(-turns / math.Pi)
	move := ct[i-1].P.Bearing(ct[i].P)
	dir := math.Max(0.1, math.Cos(geo.AngleDiff(move, s.net.Segment(to.Seg).Bearing())/2))
	return lengthSim * fewerTurns * dir, true
}

// NewSNet builds SnapNet [12]. Its filter chain is applied during
// dataset preprocessing (§V-A1), shared by every method, so the method
// itself contributes the heuristic probability blend.
func NewSNet(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig) Method {
	cfg = cfg.withDefaults()
	return NewHMMMethod("SNet", NewMatcher(net, router, cfg, 0, nil,
		&snetTransition{router: router, net: net, beta: cfg.Beta}))
}

// thmmTransition is THMM's [42] tailored transition: the classical term
// constrained by geometric and topological consistency — bounded
// detours and no effectively-reversed movements.
type thmmTransition struct {
	router *roadnet.Router
	net    *roadnet.Network
	beta   float64
}

func (t *thmmTransition) Score(ct traj.CellTrajectory, i int, from, to *hmm.Candidate) (float64, bool) {
	route, ok := t.router.RouteBetween(from.Pos(), to.Pos())
	if !ok {
		return 0, false
	}
	straight := ct[i-1].P.Dist(ct[i].P)
	// Topological constraint: bounded detour relative to the straight
	// movement (tailored to cellular error scales).
	if route.Dist > 2.5*straight+1200 {
		return 0, false
	}
	// Geometric constraint: the entry and exit roads must not demand an
	// immediate U-turn against the movement direction.
	move := ct[i-1].P.Bearing(ct[i].P)
	if geo.AngleDiff(move, t.net.Segment(to.Seg).Bearing()) > 2.8 &&
		straight > 300 {
		return 0, false
	}
	lengthSim := math.Exp(-math.Abs(straight-route.Dist) / t.beta)
	return lengthSim, true
}

// NewTHMM builds THMM [42].
func NewTHMM(net *roadnet.Network, router *roadnet.Router, cfg CommonConfig) Method {
	cfg = cfg.withDefaults()
	return NewHMMMethod("THMM", NewMatcher(net, router, cfg, 0, nil,
		&thmmTransition{router: router, net: net, beta: cfg.Beta}))
}
