package hmm

import (
	"math"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/traj"
)

// twoLayerState builds a minimal valid mid-stream state: two points,
// two candidates each, second layer chained to the first.
func twoLayerState() *StreamState {
	return &StreamState{
		Lag: 1,
		Points: traj.CellTrajectory{
			{Tower: 0, P: geo.Pt(1, 2), T: 10},
			{Tower: 1, P: geo.Pt(3, 4), T: 20},
		},
		Layers: [][]Candidate{
			{{Seg: 1}, {Seg: 2}},
			{{Seg: 3}, {Seg: 4}},
		},
		F:       [][]float64{{-1, -2}, {-3, -4}},
		Pre:     [][]int{{-1, -1}, {0, 1}},
		Dead:    []bool{false, false},
		Emitted: 1,
		Matched: []Candidate{{Seg: 1}},
		LastT:   20,
	}
}

func TestStreamStateRoundTrip(t *testing.T) {
	st := twoLayerState()
	st.Steps = [][]float64{{-1, -2}, {-3, math.NaN()}}
	sm, err := NewStreamMatcherFromState(&Matcher{}, st)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Pending() != 1 || len(sm.Matched()) != 1 {
		t.Fatalf("restored matcher: pending=%d matched=%d", sm.Pending(), len(sm.Matched()))
	}
	out := sm.ExportState()
	if out.Emitted != st.Emitted || out.LastT != st.LastT || len(out.Points) != len(st.Points) {
		t.Fatalf("export after restore differs: %+v", out)
	}
	for i := range st.Points {
		if out.Points[i] != st.Points[i] {
			t.Fatalf("point %d differs: %+v vs %+v", i, out.Points[i], st.Points[i])
		}
	}
	if len(out.Steps) != 2 || &out.Steps[0][0] != &st.Steps[0][0] {
		t.Fatalf("the open window's step table did not round-trip: %v", out.Steps)
	}
}

func TestStreamStateValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*StreamState)
		want string
	}{
		{"misaligned", func(st *StreamState) { st.Dead = st.Dead[:1] }, "misaligned"},
		{"negative lag", func(st *StreamState) { st.Lag = -1 }, "negative lag"},
		{"emitted out of range", func(st *StreamState) { st.Emitted = 3 }, "out of range"},
		{"matched mismatch", func(st *StreamState) { st.Matched = nil }, "matched entries"},
		{"dead with candidates", func(st *StreamState) { st.Dead[1] = true }, "has 2 candidates"},
		{"alive without candidates", func(st *StreamState) {
			st.Layers[1] = nil
			st.F[1] = nil
			st.Pre[1] = nil
		}, "no candidates"},
		{"scores misaligned", func(st *StreamState) { st.F[1] = st.F[1][:1] }, "scores"},
		{"backpointer out of range", func(st *StreamState) { st.Pre[1][0] = 2 }, "backpointer"},
		{"first layer backpointer", func(st *StreamState) { st.Pre[0][0] = 0 }, "backpointer"},
		{"gap out of range", func(st *StreamState) {
			st.Gaps = []Gap{{From: 0, To: 5, Reason: GapNoCandidates}}
		}, "gap"},
		{"gap unknown reason", func(st *StreamState) {
			st.Gaps = []Gap{{From: 0, To: 1, Reason: GapReason(9)}}
		}, "unknown reason"},
		{"pseudo-candidate before its layer's own", func(st *StreamState) { st.Layers[0][0].Pseudo = true }, "pseudo"},
		{"pseudo-candidate in the last layer", func(st *StreamState) { st.Layers[1][1].Pseudo = true }, "pseudo"},
		{"step table rows", func(st *StreamState) { st.Steps = [][]float64{{0, 0}} }, "step table"},
		{"step table columns", func(st *StreamState) { st.Steps = [][]float64{{0}, {0}} }, "columns"},
		{"step table at lag 0", func(st *StreamState) { st.Lag, st.Steps = 0, [][]float64{{0, 0}, {0, 0}} }, "step table"},
		{"NaN timestamp", func(st *StreamState) { st.LastT = math.NaN() }, "NaN"},
		{"negative degraded", func(st *StreamState) { st.Degraded = -1 }, "degraded"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := twoLayerState()
			tc.mut(st)
			_, err := NewStreamMatcherFromState(&Matcher{}, st)
			if err == nil {
				t.Fatal("invalid state accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// A dead point carries nil rows and must round-trip as such.
func TestStreamStateDeadPointRoundTrip(t *testing.T) {
	st := twoLayerState()
	st.Points = append(st.Points, traj.CellPoint{Tower: 2, P: geo.Pt(5, 6), T: 30})
	st.Layers = append(st.Layers, nil)
	st.F = append(st.F, nil)
	st.Pre = append(st.Pre, nil)
	st.Dead = append(st.Dead, true)
	st.LastT = 30
	sm, err := NewStreamMatcherFromState(&Matcher{}, st)
	if err != nil {
		t.Fatal(err)
	}
	out := sm.ExportState()
	if !out.Dead[2] || out.Layers[2] != nil {
		t.Fatalf("dead point did not round-trip: dead=%v layer=%v", out.Dead[2], out.Layers[2])
	}
}
