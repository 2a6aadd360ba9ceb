package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Eq. 7 (Model.obsImplicit) and Eq. 10 (session.roadProbRows) run four
// rows at a time through nn.Linear.ApplyReLU2Rows and nn.MatMulAddInto.
// These tests hold them bit for bit to the one-row loops they replaced,
// kept verbatim below, at the repository benchmark's dimension and at
// dimensions that take the kernels' fallbacks.

// refObsImplicit is the one-row Eq. 7 loop obsImplicit replaced: one
// d-sized scratch row per candidate, read out by ApplyReLU2.
func (m *Model) refObsImplicit(ws *nn.Workspace, ctxHalf []float64, cands []hmm.Candidate, imp []float64) {
	if m.Cfg.DisableImplicitObs {
		for j := range imp {
			imp[j] = 0.5
		}
		return
	}
	hid := ws.TakeVec(m.Cfg.Dim)
	for j := range cands {
		for k, v := range m.obsSeg.Row(int(cands[j].Seg)) {
			hid[k] = v + ctxHalf[k]
		}
		imp[j] = softmaxP1(m.ObsMLP.Layers[1].ApplyReLU2(hid))
	}
}

// refRoadProbRows is the one-row Eq. 10 loop roadProbRows replaced: per
// segment, the weights, the table row plus Σ_i w_i·transVal[i] one
// multiply-add at a time, and ApplyReLU2.
func (s *session) refRoadProbRows(ws *nn.Workspace, segs []roadnet.SegmentID, probs []float64) {
	m, d, n := s.m, s.m.Cfg.Dim, s.keysN
	w := ws.TakeVec(n)
	hid := ws.TakeVec(d)
	for r, sid := range segs {
		s.keys.WeightsInto(w, m.transQ[sid])
		copy(hid, m.transSeg.Row(int(sid)))
		for i, wi := range w {
			for j, v := range s.transVal[i*d : (i+1)*d] {
				hid[j] += wi * v
			}
		}
		probs[r] = softmaxP1(m.TransMLP.Layers[1].ApplyReLU2(hid))
	}
}

// rowKernelModels builds untrained models over the test city at the
// default k and pool, one per dimension: 128 (both kernels), 36 (the
// read-out kernel only: not a multiple of 8) and 37 (neither). The
// arithmetic does not depend on the weights' values.
func rowKernelModels(t *testing.T) (map[int]*Model, traj.CellTrajectory) {
	d := testDataset(t, 10)
	models := make(map[int]*Model)
	for _, dim := range []int{128, 36, 37} {
		cfg := DefaultConfig()
		cfg.Dim = dim
		m, err := New(d, d.TrainTrips(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.RefreshEmbeddings()
		models[dim] = m
	}
	var ct traj.CellTrajectory
	for _, tr := range d.TestTrips() {
		if len(tr.Cell) > len(ct) {
			ct = tr.Cell
		}
	}
	return models, ct
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: row %d is %v, the one-row loop %v", what, i, got[i], want[i])
		}
	}
}

// TestObsImplicitMatchesRowLoop: every point's whole candidate pool
// scores the same bits through the four-row Eq. 7 as through the
// one-row loop, for a session filled whole and a streamed one (its
// causal context halves), at every dimension of rowKernelModels.
func TestObsImplicitMatchesRowLoop(t *testing.T) {
	models, ct := rowKernelModels(t)
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	for dim, m := range models {
		batch, stream := m.newSession(ct), &session{m: m}
		for i := range ct {
			stream.extend(ct[:i+1])
			cands := poolCandidates(m.Net, ct[i].P, m.candidatePool(ct, i))
			for _, s := range []struct {
				name string
				sess *session
			}{{"batch", batch}, {"stream", stream}} {
				ws.Reset()
				half := s.sess.row(s.sess.obsCtx, i)
				got, want := ws.TakeVec(len(cands)), ws.TakeVec(len(cands))
				m.obsImplicit(ws, half, cands, got)
				m.refObsImplicit(ws, half, cands, want)
				sameFloats(t, fmt.Sprintf("dim %d, %s, point %d", dim, s.name, i), got, want)
			}
		}
	}
}

// TestRoadProbRowsMatchRowLoop: every segment of the city scores the
// same bits through the four-row Eq. 10 as through the one-row loop, for
// a session filled whole and for a streamed one after each push (keys
// and transVal grown a point at a time), at every dimension of
// rowKernelModels.
func TestRoadProbRowsMatchRowLoop(t *testing.T) {
	models, ct := rowKernelModels(t)
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	for dim, m := range models {
		segs := allSegs(m)
		check := func(what string, s *session) {
			t.Helper()
			s.ensureKeys()
			ws.Reset()
			got, want := ws.TakeVec(len(segs)), ws.TakeVec(len(segs))
			s.roadProbRows(ws, segs, got)
			s.refRoadProbRows(ws, segs, want)
			sameFloats(t, fmt.Sprintf("dim %d, %s", dim, what), got, want)
		}
		check("batch", m.newSession(ct))
		stream := &session{m: m}
		for i := range ct {
			stream.extend(ct[:i+1])
			check(fmt.Sprintf("stream after push %d", i), stream)
		}
	}
}
