package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Eq. 7's first layer is factored over its [segment ; context] input on
// the inference path (Model.obsImplicit). These tests hold the factored
// kernel to the written-out equations, pin its three call shapes to each
// other bit for bit, and check that the per-segment table follows the
// weights.

// refObsScores is the written-out reference: Eq. 7 as ObsMLP.Apply over
// explicit [segment embedding ; ctx] rows, the segment rows read from
// ref (refEmbeddings), then Eq. 8 as ObsFuse.Apply over [implicit,
// Gaussian distance, co-occurrence]. It shares no code with the
// factored kernel beyond the nn layers themselves.
func refObsScores(m *Model, ref *nn.Mat, p traj.CellPoint, ctxRow []float64, cands []hmm.Candidate) []float64 {
	d := m.Cfg.Dim
	scores := make([]float64, len(cands))
	for j, c := range cands {
		imp := 0.5
		if !m.Cfg.DisableImplicitObs {
			feat := nn.NewMat(1, 2*d)
			copy(feat.W[:d], ref.Row(m.Graph.SegNode(c.Seg)))
			copy(feat.W[d:], ctxRow)
			imp = nn.Softmax(m.ObsMLP.Apply(feat).W)[1]
		}
		logits := m.ObsFuse.Apply(nn.RowVec(imp, m.gaussDist(c.Dist), m.Graph.CoOccurrenceNorm(p.Tower, c.Seg)))
		scores[j] = logits.W[1] - logits.W[0]
	}
	return scores
}

// refPoolObs scores point i's whole candidate pool through the reference
// and softmax-normalizes across it, returning P_O per pool segment.
func refPoolObs(m *Model, ref *nn.Mat, ct traj.CellTrajectory, i int, ctxRow []float64) map[roadnet.SegmentID]float64 {
	cands := poolCandidates(m.Net, ct[i].P, m.candidatePool(ct, i))
	probs := nn.Softmax(refObsScores(m, ref, ct[i], ctxRow, cands))
	out := make(map[roadnet.SegmentID]float64, len(cands))
	for j, c := range cands {
		out[c.Seg] = probs[j]
	}
	return out
}

// TestStreamObsMatchesReference: the streaming session's factored pool
// scores equal the reference over its causal context rows, and its
// one-row Score is bit-equal to the pool score of the same candidate.
func TestStreamObsMatchesReference(t *testing.T) {
	m, _, ct := trainedModel(t)
	ref := refEmbeddings(m)
	ss := &session{m: m}
	for i := range ct {
		cands := ss.Candidates(ct[:i+1], i, m.Cfg.K)
		want := refPoolObs(m, ref, ct, i, ss.row(ss.ctxW, i))
		for _, c := range cands {
			if math.Abs(want[c.Seg]-c.Obs) > batchTol {
				t.Fatalf("point %d seg %d: stream Obs %v vs reference %v", i, c.Seg, c.Obs, want[c.Seg])
			}
			if got := ss.Score(ct[:i+1], i, &c); got != c.Obs {
				t.Fatalf("point %d seg %d: stream one-row Score %v vs pool Obs %v", i, c.Seg, got, c.Obs)
			}
		}
	}
}

// TestObsPathsBitEqual: batch and stream sessions differ only in the
// context they attend over, so on a one-point trajectory (context = the
// point's own embedding in both) pool scores and one-row scores of the
// two sessions must agree to the bit, for every point of the fixture.
func TestObsPathsBitEqual(t *testing.T) {
	m, _, full := trainedModel(t)
	for i := range full {
		one := full[i : i+1]
		sess := m.newSession(one)
		ss := &session{m: m}
		batch := sess.Candidates(one, 0, m.Cfg.K)
		stream := ss.Candidates(one, 0, m.Cfg.K)
		if len(batch) != len(stream) {
			t.Fatalf("point %d: layer sizes differ: %d vs %d", i, len(batch), len(stream))
		}
		for j := range batch {
			b, s := batch[j], stream[j]
			if b.Seg != s.Seg || b.Obs != s.Obs {
				t.Fatalf("point %d cand %d: batch (%d, %v) vs stream (%d, %v)", i, j, b.Seg, b.Obs, s.Seg, s.Obs)
			}
			if bs, st := sess.Score(one, 0, &b), ss.Score(one, 0, &s); bs != b.Obs || st != b.Obs {
				t.Fatalf("point %d cand %d: one-row batch %v, stream %v vs pool %v", i, j, bs, st, b.Obs)
			}
		}
	}
}

// checkObsSegTable recomputes obsSeg[s] = h(s)·W1_seg + b1 from scratch
// with plain loops, h(s) segment s's row of refEmbeddings over src (the
// model m was frozen from that still holds its encoder: m itself, unless
// loaded), and compares it to the frozen table.
func checkObsSegTable(t *testing.T, m, src *Model, when string) {
	t.Helper()
	d := m.Cfg.Dim
	l1 := m.ObsMLP.Layers[0]
	if m.obsSeg == nil || m.obsSeg.R != m.Net.NumSegments() || m.obsSeg.C != d {
		t.Fatalf("%s: obsSeg table missing or misshapen: %+v", when, m.obsSeg)
	}
	ref := refEmbeddings(src)
	for s := 0; s < m.obsSeg.R; s++ {
		emb := ref.Row(m.Graph.SegNode(roadnet.SegmentID(s)))
		for j := 0; j < d; j++ {
			var sum float64
			for k := 0; k < d; k++ {
				sum += emb[k] * l1.W.W.At(k, j)
			}
			sum += l1.B.W.W[j]
			if got := m.obsSeg.At(s, j); math.Abs(got-sum) > batchTol {
				t.Fatalf("%s: obsSeg[%d][%d] = %v, recomputed %v", when, s, j, got, sum)
			}
		}
	}
}

// TestObsSegTableFollowsWeights: the table is rebuilt wherever the
// weights it is derived from change hands — Train, Load (bit-equal to the
// trained model's, tower rows too), and an explicit RefreshEmbeddings
// after a weight edit to the trained model (a loaded one is
// inference-only) — and the edit shows in the scores once refreshed.
func TestObsSegTableFollowsWeights(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkObsSegTable(t, m, m, "after Train")

	m2 := savedAndLoaded(t, d, cfg, m)
	checkObsSegTable(t, m2, m, "after Load")
	if !slices.Equal(bitsOf(m2.obsSeg.W), bitsOf(m.obsSeg.W)) || !slices.Equal(bitsOf(m2.emb.W), bitsOf(m.emb.W)) {
		t.Fatal("loaded table or tower rows differ from the trained model's")
	}

	ct := d.TestTrips()[0].Cell
	layer := func() []hmm.Candidate {
		return m.newSession(ct).Candidates(ct, 0, m.Cfg.K)
	}
	before := layer()
	// Row 0 of W1 is in the segment half (rows < d), so only the table
	// carries this edit into the scores.
	m.ObsMLP.Layers[0].W.W.W[0] += 0.5
	m.RefreshEmbeddings()
	checkObsSegTable(t, m, m, "after weight edit + RefreshEmbeddings")
	after := layer()
	changed := len(before) != len(after)
	for j := 0; !changed && j < len(before); j++ {
		changed = before[j].Seg != after[j].Seg || before[j].Obs != after[j].Obs
	}
	if !changed {
		t.Fatal("editing an ObsMLP first-layer weight and refreshing left every score unchanged")
	}
}

// TestObsSegTableConcurrentReaders: the table is read-only after
// refresh, so batch matches and streaming pushes may share one model
// from many goroutines (run under -race) and still reproduce the
// sequential results.
func TestObsSegTableConcurrentReaders(t *testing.T) {
	d := testDataset(t, 10)
	checkConcurrentReaders(t, streamModel(t, d), d.TestTrips())
}

// checkConcurrentReaders matches and streams up to three trips
// sequentially, then again from concurrent goroutines sharing m, and
// requires the same paths.
func checkConcurrentReaders(t *testing.T, m *Model, trips []*traj.Trip) {
	t.Helper()
	if len(trips) > 3 {
		trips = trips[:3]
	}
	stream := func(ct traj.CellTrajectory) ([]roadnet.SegmentID, error) {
		sm := m.NewStream(2)
		for _, p := range ct {
			if _, err := sm.Push(p); err != nil {
				return nil, err
			}
		}
		sm.Flush()
		return sm.Path(), nil
	}
	wantBatch := make([][]roadnet.SegmentID, len(trips))
	wantStream := make([][]roadnet.SegmentID, len(trips))
	for i, tr := range trips {
		res, err := m.Match(tr.Cell)
		if err != nil {
			t.Fatal(err)
		}
		wantBatch[i] = res.Path
		if wantStream[i], err = stream(tr.Cell); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i, tr := range trips {
			wg.Add(2)
			go func(i int, ct traj.CellTrajectory) {
				defer wg.Done()
				res, err := m.Match(ct)
				if err != nil {
					t.Errorf("concurrent match %d: %v", i, err)
					return
				}
				if !slices.Equal(res.Path, wantBatch[i]) {
					t.Errorf("concurrent match %d diverged from sequential", i)
				}
			}(i, tr.Cell)
			go func(i int, ct traj.CellTrajectory) {
				defer wg.Done()
				got, err := stream(ct)
				if err != nil {
					t.Errorf("concurrent stream %d: %v", i, err)
					return
				}
				if !slices.Equal(got, wantStream[i]) {
					t.Errorf("concurrent stream %d diverged from sequential", i)
				}
			}(i, tr.Cell)
		}
	}
	wg.Wait()
}

// TestObsScoringAllocs pins allocations per call: the one-row Score runs
// entirely in a pooled workspace it takes and returns per call, and a
// warm Candidates makes 13 on this fixture (33 before the spatial lookup
// stopped allocating a map, a hit list and two sorts' worth per ring) —
// the lookup's result and its SegmentID copy, the pool's growth by the
// co-occurring roads, the candidate slice, and selectTopK's nine.
func TestObsScoringAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool caching")
	}
	m, sess, ct := trainedModel(t)
	c := sess.Candidates(ct, 1, m.Cfg.K)[0]
	if got := testing.AllocsPerRun(100, func() { sess.Candidates(ct, 1, m.Cfg.K) }); got > 13 {
		t.Errorf("Candidates: %v allocs per call, want <= 13", got)
	}
	if got := testing.AllocsPerRun(100, func() { sess.Score(ct, 1, &c) }); got != 0 {
		t.Errorf("shortcut Score: %v allocs per call, want 0", got)
	}
}
