package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/hmm"
	"repro/internal/mrg"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Shared trained model for the micro-benchmarks: training dominates
// setup, so do it once per `go test -bench` run.
var (
	benchOnce sync.Once
	benchM    *Model
	benchCT   traj.CellTrajectory
)

func benchModel(b *testing.B) (*Model, traj.CellTrajectory) {
	benchOnce.Do(func() {
		d := testDataset(b, 14)
		m, err := Train(d, fastConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchM, benchCT = m, d.Trips[d.Test[0]].Cell
	})
	if benchM == nil {
		b.Fatal("benchmark model failed to train")
	}
	return benchM, benchCT
}

// benchSession prepares a session with candidates for points 0 and 1 so
// both observation and transition scoring have warm state.
func benchSession(b *testing.B) (*session, traj.CellTrajectory, []hmm.Candidate, []hmm.Candidate) {
	m, ct := benchModel(b)
	sess := m.newSession(ct)
	from := sess.Candidates(ct, 0, m.Cfg.K)
	to := sess.Candidates(ct, 1, m.Cfg.K)
	return sess, ct, from, to
}

// BenchmarkObsScoreOneRow is the shortcut pass's per-pseudo-candidate
// observation scoring: one-row calls into the pool kernel.
func BenchmarkObsScoreOneRow(b *testing.B) {
	sess, ct, _, to := benchSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range to {
			sess.Score(ct, 1, &to[j])
		}
	}
}

// BenchmarkObsScoreBatch is the batched pool scoring: the factored
// Eq. 7 layer plus the fuse MLP through pooled workspace scratch, zero
// steady-state allocations.
func BenchmarkObsScoreBatch(b *testing.B) {
	sess, ct, _, to := benchSession(b)
	m, tower, half := sess.m, ct[1].Tower, sess.row(sess.obsCtx, 1)
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	scores := ws.TakeVec(len(to))
	m.obsScoreBatchCtx(ws, tower, half, to, scores) // warm slabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		scores := ws.TakeVec(len(to))
		m.obsScoreBatchCtx(ws, tower, half, to, scores)
	}
}

// BenchmarkTransScoreBatch is the fused k×k transition batch of one
// Viterbi step.
func BenchmarkTransScoreBatch(b *testing.B) {
	sess, ct, from, to := benchSession(b)
	out := make([]float64, len(from)*len(to))
	sess.ScoreBatch(ct, 1, from, to, out) // warm caches + slabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.ScoreBatch(ct, 1, from, to, out)
	}
}

// benchShapeSession is a session over a 20-point trajectory at the
// repository benchmark's shape — dim 128 — on an untrained model: the
// arithmetic does not depend on the weights' values.
func benchShapeSession(b *testing.B, cfg Config) (*session, traj.CellTrajectory) {
	d := testDataset(b, 10)
	cfg.Dim = 128
	m, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.RefreshEmbeddings()
	var ct traj.CellTrajectory
	for _, tr := range d.Trips {
		ct = append(ct, tr.Cell...)
	}
	ct = ct[:20]
	return m.newSession(ct), ct
}

// BenchmarkCandidates is the whole candidate stage of one point at the
// repository benchmark's shape (k 30, a pool of 90 nearest segments
// plus the tower's co-occurring roads): lookup, projection, Eq. 7–8
// over the pool, selection.
func BenchmarkCandidates(b *testing.B) {
	sess, ct := benchShapeSession(b, DefaultConfig())
	k := sess.m.Cfg.K
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Candidates(ct, i%len(ct), k)
	}
}

// BenchmarkRoadProbFill is the Eq. 9–10 kernel at the same shape, 58
// segments per call (what one streaming push fills).
func BenchmarkRoadProbFill(b *testing.B) {
	sess, _ := benchShapeSession(b, fastConfig())
	m := sess.m
	segs := make([]roadnet.SegmentID, 58)
	for i := range segs {
		segs[i] = roadnet.SegmentID(i * 7 % m.Net.NumSegments())
	}
	probs := make([]float64, len(segs))
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	sess.roadProbRows(ws, segs, probs) // warm slabs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Reset()
		sess.roadProbRows(ws, segs, probs)
	}
	b.ReportMetric(float64(len(segs)), "rows/op")
}

// BenchmarkStreamPush is one push into a learned stream (NewStream(2))
// at the repository benchmark's shape — dim 128, the default k — on an
// untrained model, over the longest test trip: the point's Eq. 6
// context out of the session's key cache, its candidates and, past the
// first point, the transition step and any emission. A new stream starts
// whenever the trip runs out, so ns/op and allocs/op average over every
// position of the trip.
func BenchmarkStreamPush(b *testing.B) {
	d := testDataset(b, 10)
	cfg := DefaultConfig()
	cfg.Dim = 128
	m, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.RefreshEmbeddings()
	var ct traj.CellTrajectory
	for _, tr := range d.TestTrips() {
		if len(tr.Cell) > len(ct) {
			ct = tr.Cell
		}
	}
	var sm *hmm.StreamMatcher
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(ct) == 0 {
			sm = m.NewStream(2)
		}
		if _, err := sm.Push(ct[i%len(ct)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ct)), "points/trip")
}

// BenchmarkStreamSessionState prices what one stream session keeps as
// it grows: a learned stream (NewStream(2)) at the repository
// benchmark's shape — dim 128, the default k — on an untrained model,
// after 50, 300 and 3,000 pushed points. It reports the session's live
// heap (heap_B/session, read after a warm-up session has filled the
// model's router cache), its lhmm-session/v3 snapshot size (snapshot_B)
// and the time its pushes took (push_s/session); ns/op is one
// EncodeStreamSnapshot. The points are the
// fixture's trips laid end to end, repeated as needed, one every 30 s.
func BenchmarkStreamSessionState(b *testing.B) {
	d := testDataset(b, 10)
	cfg := DefaultConfig()
	cfg.Dim = 128
	m, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.RefreshEmbeddings()
	var trips traj.CellTrajectory
	for _, tr := range d.Trips {
		trips = append(trips, tr.Cell...)
	}
	wh := m.WeightsHash()
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC() // the second drops what sync.Pools held
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, n := range []int{50, 300, 3000} {
		ct := make(traj.CellTrajectory, n)
		for i := range ct {
			ct[i] = trips[i%len(trips)]
			ct[i].T = 30 * float64(i)
		}
		push := func() *hmm.StreamMatcher {
			sm := m.NewStream(2)
			for _, p := range ct {
				if _, err := sm.Push(p); err != nil {
					b.Fatal(err)
				}
			}
			return sm
		}
		var sm *hmm.StreamMatcher
		var held int64
		var pushS float64
		b.Run(fmt.Sprintf("points=%d", n), func(b *testing.B) {
			// b.Run calls this more than once, and pushing is slow at
			// 3,000 points: the session is built on the first call.
			if sm == nil {
				push() // fills the router cache, which the model owns
				before := heap()
				t0 := time.Now()
				sm = push()
				pushS = time.Since(t0).Seconds()
				held = heap() - before
			}
			var snap []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if snap, err = EncodeStreamSnapshot(sm, "bench", wh); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(held), "heap_B/session")
			b.ReportMetric(float64(len(snap)), "snapshot_B")
			b.ReportMetric(pushS, "push_s/session")
		})
	}
}

// BenchmarkPhase1Batch is one phase-1 step's forward and backward over
// its batch's receptive field, at about the repository benchmark's
// shape: dim 128, the default examples per trip, a city of 8,985 nodes.
func BenchmarkPhase1Batch(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Dim = 128
	m, samples, rng := phase1Fixture(b, testDatasetSized(b, 14, 6600), cfg)
	draws := m.drawBatch(samples[:batchTrips], rng)
	params := m.implicitParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp := nn.NewTape()
		loss, _, _ := receptiveBatchLoss(m, tp, draws)
		if err := tp.Backward(loss); err != nil {
			b.Fatal(err)
		}
		for _, p := range params {
			p.ZeroGrad()
		}
	}
}

// BenchmarkTrainFuse is one epoch of phase 2 over the Phase1Batch
// fixture's training trips, dim 128: per trip a scoring session, the
// observation examples and the candidate-route transition examples
// (each point's pool scored once), and one Adam step for each fuse MLP.
// Phase 1 is skipped; the frozen embeddings are the untrained encoder's.
func BenchmarkTrainFuse(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Dim = 128
	cfg.FuseEpochs = 1
	m, samples, rng := phase1Fixture(b, testDatasetSized(b, 14, 6600), cfg)
	m.RefreshEmbeddings()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.trainFuse(samples, rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(samples)), "trips")
}

// BenchmarkRefreshEmbeddings is the all-nodes encoder pass, tape-free
// (Encoder.Embed), and the per-segment tables built from its segment
// rows, which Train runs (Load reads the rows from the file instead):
// dim 128 on the test city (1,089 nodes), per encoder mode with message
// passing.
func BenchmarkRefreshEmbeddings(b *testing.B) {
	d := testDataset(b, 14)
	for _, mode := range []mrg.EncoderMode{mrg.HetGNN, mrg.HomoGNN} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Dim = 128
			cfg.EncoderMode = mode
			m, err := New(d, d.TrainTrips(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.RefreshEmbeddings()
			}
		})
	}
}

// BenchmarkLoad is Model.Load of a saved model, dim 128 on the test
// city: decoding the file, the per-segment tables from its node rows and
// the copy of its tower rows, and no encoder pass. Each iteration loads
// into a fresh New model, built outside the timer.
func BenchmarkLoad(b *testing.B) {
	d := testDataset(b, 14)
	cfg := DefaultConfig()
	cfg.Dim = 128
	m, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	m.RefreshEmbeddings()
	var file bytes.Buffer
	if err := m.Save(&file); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		l, err := New(d, d.TrainTrips(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := l.Load(bytes.NewReader(file.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMatch is the end-to-end single-trajectory match.
func BenchmarkMatch(b *testing.B) {
	m, ct := benchModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(ct); err != nil {
			b.Fatal(err)
		}
	}
}
