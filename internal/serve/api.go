package serve

import (
	"fmt"
	"math"

	"repro/internal/cellular"
	"repro/internal/geo"
	"repro/internal/hmm"
	"repro/internal/obs"
	"repro/internal/traj"
)

// The wire schema of lhmm-serve. Everything is plain JSON with stable
// field names; cmd/lhmm reuses MatchRequest/MatchResponse for its
// -traj/-json modes so a server response can be diffed byte-for-byte
// against an offline match of the same trajectory.

// Point is one cellular observation on the wire.
type Point struct {
	Tower int     `json:"tower"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	T     float64 `json:"t"`
}

// MatchOptions are per-request overrides for whole-trajectory
// matching. Zero values keep the server's (or CLI's) defaults.
type MatchOptions struct {
	// OnBreak is the dead-point policy: "error", "skip", or "split".
	OnBreak string `json:"on_break,omitempty"`
	// Sanitize is the input-validation mode: "strict", "drop", or "off".
	Sanitize string `json:"sanitize,omitempty"`
	// TimeoutMS bounds the match wall-clock; clamped to 30 s.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// MatchRequest is the body of POST /v1/match (and the file format of
// lhmm match -traj).
type MatchRequest struct {
	Points  []Point       `json:"points"`
	Options *MatchOptions `json:"options,omitempty"`
}

// Trajectory validates and converts the request points against the
// model's cell network.
func (r *MatchRequest) Trajectory(cells *cellular.Net) (traj.CellTrajectory, error) {
	if len(r.Points) == 0 {
		return nil, fmt.Errorf("serve: request has no points")
	}
	ct := make(traj.CellTrajectory, len(r.Points))
	for i, p := range r.Points {
		if p.Tower < 0 || p.Tower >= cells.NumTowers() {
			return nil, fmt.Errorf("serve: point %d references tower %d (network has %d)", i, p.Tower, cells.NumTowers())
		}
		ct[i] = traj.CellPoint{Tower: cellular.TowerID(p.Tower), P: geo.Pt(p.X, p.Y), T: p.T}
	}
	return ct, nil
}

// PointsRequest converts a trajectory into the wire form (the CLI's
// -dump-traj uses it to produce POST-able bodies).
func PointsRequest(ct traj.CellTrajectory) MatchRequest {
	req := MatchRequest{Points: make([]Point, len(ct))}
	for i, p := range ct {
		req.Points[i] = Point{Tower: int(p.Tower), X: p.P.X, Y: p.P.Y, T: p.T}
	}
	return req
}

// MatchedPoint is one finalized per-point match on the wire.
type MatchedPoint struct {
	Seg     int     `json:"seg"`
	Frac    float64 `json:"frac"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Dist    float64 `json:"dist"`
	Obs     float64 `json:"obs"`
	Skipped bool    `json:"skipped,omitempty"`
	// Dead marks a point that had no candidate roads (Skip/Split break
	// policies, or a session push that failed on it); its other fields
	// are zero.
	Dead bool `json:"dead,omitempty"`
}

// GapJSON is one stitch discontinuity of a Split-policy match.
type GapJSON struct {
	From   int    `json:"from"`
	To     int    `json:"to"`
	Reason string `json:"reason"`
}

// MatchResponse is the body of a successful POST /v1/match (and of
// lhmm match -json). Fields are fully determined by the match result,
// never by server state, so online and offline runs of the same
// trajectory and configuration encode identically.
type MatchResponse struct {
	Path     []int          `json:"path"`
	Matched  []MatchedPoint `json:"matched"`
	Gaps     []GapJSON      `json:"gaps,omitempty"`
	Score    float64        `json:"score"`
	Degraded int            `json:"degraded,omitempty"`
	// DroppedPoints counts input points removed by drop-mode
	// sanitization; indices above refer to the sanitized trajectory.
	DroppedPoints int `json:"dropped_points,omitempty"`
}

// ExplainMatchResponse is the body of POST /v1/match with ?debug=1
// and/or ?explain=1 (and of lhmm match -json -trace/-explain): the
// normal response plus the per-request MatchTrace (per-point candidate
// counts and score stats, Viterbi breaks, stage wall-clock) and the
// per-decision Explain artifact, each present only when asked for.
// Embedding MatchResponse keeps the leading fields byte-identical to
// the plain encoding; the extra blocks are strictly appended.
type ExplainMatchResponse struct {
	MatchResponse
	Trace   *obs.MatchTrace `json:"trace,omitempty"`
	Explain *hmm.Explain    `json:"explain,omitempty"`
}

// ResultJSON converts a match result to the wire form.
func ResultJSON(res *hmm.Result) MatchResponse {
	out := MatchResponse{
		Path:          make([]int, len(res.Path)),
		Matched:       matchedJSON(res.Matched, res.Dead),
		Score:         sanitizeFloat(res.Score),
		Degraded:      res.Degraded,
		DroppedPoints: res.Sanitize.Dropped(),
	}
	for i, s := range res.Path {
		out.Path[i] = int(s)
	}
	for _, g := range res.Gaps {
		out.Gaps = append(out.Gaps, GapJSON{From: g.From, To: g.To, Reason: g.Reason.String()})
	}
	return out
}

// streamResultJSON assembles the finish-time view of a streaming
// session: the same MatchResponse shape, built from the matcher's
// finalized state (streaming has no Eq. 14 path score).
func streamResultJSON(sm *hmm.StreamMatcher) MatchResponse {
	out := MatchResponse{
		Matched:       matchedJSON(sm.Matched(), sm.Dead()),
		Degraded:      sm.Degraded(),
		DroppedPoints: sm.Sanitize().Dropped(),
	}
	for _, s := range sm.Path() {
		out.Path = append(out.Path, int(s))
	}
	for _, g := range sm.Gaps() {
		out.Gaps = append(out.Gaps, GapJSON{From: g.From, To: g.To, Reason: g.Reason.String()})
	}
	return out
}

// matchedJSON converts matched candidates to the wire form. dead,
// index-aligned with ms or nil, marks dead points (sent with zero
// fields); a point matched to a shortcut pseudo-candidate is sent as
// skipped.
func matchedJSON(ms []hmm.Candidate, dead []bool) []MatchedPoint {
	out := make([]MatchedPoint, len(ms))
	for i := range ms {
		if i < len(dead) && dead[i] {
			out[i] = MatchedPoint{Dead: true}
			continue
		}
		c := &ms[i]
		out[i] = MatchedPoint{
			Seg:     int(c.Seg),
			Frac:    c.Frac,
			X:       c.Proj.X,
			Y:       c.Proj.Y,
			Dist:    c.Dist,
			Obs:     sanitizeFloat(c.Obs),
			Skipped: c.Pseudo,
		}
	}
	return out
}

// SessionRequest is the body of POST /v1/sessions.
type SessionRequest struct {
	// Lag is the fixed emission lag in points; nil keeps the server
	// default.
	Lag *int `json:"lag,omitempty"`
	// OnBreak / Sanitize override the session's policies (same
	// spellings as MatchOptions).
	OnBreak  string `json:"on_break,omitempty"`
	Sanitize string `json:"sanitize,omitempty"`
}

// SessionResponse is the body of a successful session creation.
type SessionResponse struct {
	ID  string `json:"id"`
	Lag int    `json:"lag"`
}

// PushRequest is the body of POST /v1/sessions/{id}/points.
type PushRequest struct {
	Points []Point `json:"points"`
}

// PushResponse reports the matches finalized by a batch of pushes.
type PushResponse struct {
	Finalized []MatchedPoint `json:"finalized"`
	// Pending is the current emit lag: points accepted but not yet
	// finalized.
	Pending int `json:"pending"`
	// Dropped counts points in this request removed by drop-mode
	// sanitization (they consume no stream index).
	Dropped int `json:"dropped,omitempty"`
	// Degraded counts scoring events in this batch that fell back to
	// the classical models (the per-push quality signal).
	Degraded int `json:"degraded,omitempty"`
}

// SessionStatus is the body of GET /v1/sessions/{id}.
type SessionStatus struct {
	ID       string `json:"id"`
	Pushed   int    `json:"pushed"`
	Emitted  int    `json:"emitted"`
	Pending  int    `json:"pending"`
	Degraded int    `json:"degraded,omitempty"`
}

// ErrorResponse is the body of every non-2xx API response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// sanitizeFloat maps NaN/Inf (not encodable in JSON) to 0; the match
// pipeline's degraded-mode machinery makes these unreachable in
// practice, but a wire encoder must not be able to fail on a score.
func sanitizeFloat(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
