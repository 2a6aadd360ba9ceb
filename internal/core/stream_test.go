package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/traj"
)

// streamModel builds an untrained model with frozen embeddings — the
// learned scoring machinery is exercised end to end without paying for
// training (weights are deterministic for the seed).
func streamModel(t testing.TB, d *traj.Dataset) *Model {
	t.Helper()
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEmbeddings()
	return m
}

func TestNewStreamDeterministic(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]

	run := func() ([]int, []int) {
		sm := m.NewStream(2)
		var segs []int
		for _, p := range tr.Cell {
			out, err := sm.Push(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range out {
				segs = append(segs, int(c.Seg))
			}
		}
		for _, c := range sm.Flush() {
			segs = append(segs, int(c.Seg))
		}
		path := make([]int, 0, 8)
		for _, s := range sm.Path() {
			path = append(path, int(s))
		}
		return segs, path
	}

	s1, p1 := run()
	s2, p2 := run()
	if len(s1) != len(tr.Cell) {
		t.Fatalf("emitted %d matches for %d points", len(s1), len(tr.Cell))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("two streams diverge at point %d: %d vs %d", i, s1[i], s2[i])
		}
	}
	if len(p1) == 0 {
		t.Fatal("empty expanded path")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("paths diverge at %d", i)
		}
	}
}

// The streamed observation scores must be finite and normalized like
// the batch session's (a pool softmax), and lag semantics must hold:
// nothing is finalized until Lag points of look-ahead exist.
func TestNewStreamLagAndScores(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]
	if len(tr.Cell) < 4 {
		t.Skip("trip too short")
	}
	lag := 2
	sm := m.NewStream(lag)
	for i, p := range tr.Cell {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		if i < lag && len(out) > 0 {
			t.Fatalf("point %d finalized before %d points of look-ahead", i, lag)
		}
		for _, c := range out {
			if math.IsNaN(c.Obs) || c.Obs < 0 || c.Obs > 1 {
				t.Fatalf("observation probability %v out of range", c.Obs)
			}
		}
	}
	if got := sm.Pending(); got != lag {
		t.Fatalf("pending %d points in steady state, want %d", got, lag)
	}
	sm.Flush()
	if got := sm.Pending(); got != 0 {
		t.Fatalf("pending %d after Flush", got)
	}
}

func TestNewStreamWithoutEmbeddingsPanics(t *testing.T) {
	d := testDataset(t, 6)
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewStream without embeddings did not panic")
		}
	}()
	m.NewStream(1)
}

// The model's sanitize and break policies carry into the stream.
func TestNewStreamPolicyCarryover(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	m.Cfg.Sanitize = traj.SanitizeDrop
	sm := m.NewStream(1)
	tr := d.TestTrips()[0]
	if _, err := sm.Push(tr.Cell[0]); err != nil {
		t.Fatal(err)
	}
	// A non-increasing timestamp is dropped, not an error, under drop.
	bad := tr.Cell[1]
	bad.T = tr.Cell[0].T
	if _, err := sm.Push(bad); err != nil {
		t.Fatalf("drop-mode push errored: %v", err)
	}
	if got := sm.Sanitize().BadTimes; got != 1 {
		t.Fatalf("BadTimes = %d, want 1", got)
	}

	m.Cfg.Sanitize = traj.SanitizeStrict
	sm2 := m.NewStream(1)
	if _, err := sm2.Push(tr.Cell[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := sm2.Push(bad); err == nil {
		t.Fatal("strict-mode push accepted a non-increasing timestamp")
	}
}

// Streaming and batch sessions share the scoring helpers; pin that a
// candidate layer produced by each for the same first point agrees
// (with a single point there is no look-ahead, so the causal context
// equals the batch context and scores must match exactly).
func TestNewStreamFirstPointAgreesWithBatch(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]
	one := tr.Cell[:1]

	sess := m.newSession(one)
	batch := sess.Candidates(one, 0, m.Cfg.K)

	ss := &session{m: m}
	stream := ss.Candidates(one, 0, m.Cfg.K)

	if len(batch) != len(stream) {
		t.Fatalf("layer sizes differ: %d vs %d", len(batch), len(stream))
	}
	for i := range batch {
		if batch[i].Seg != stream[i].Seg || batch[i].Obs != stream[i].Obs {
			t.Fatalf("candidate %d differs: batch (%d, %v) vs stream (%d, %v)",
				i, batch[i].Seg, batch[i].Obs, stream[i].Seg, stream[i].Obs)
		}
	}
}

// TestStreamPushCountsBatchDegraded: a learned stream scores its fan-out
// through ScoreBatch like a batch match, so a fused score that comes out
// non-finite on a push must reach every place a degraded event is read —
// StreamMatcher.Degraded, the shared hmm.match.degraded counter, and the
// snapshot's degraded field across a restore.
func TestStreamPushCountsBatchDegraded(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	obs.Default.Enable()
	t.Cleanup(obs.Default.Disable)
	counter := obs.Default.Counter("hmm.match.degraded")
	before := counter.Value()

	d := testDataset(t, 10)
	m := streamModel(t, d)
	tr := d.TestTrips()[0]
	if err := faultinject.Arm("core.trans.nan:3"); err != nil {
		t.Fatal(err)
	}
	sm := m.NewStream(2)
	for _, p := range tr.Cell {
		if _, err := sm.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.DisarmAll()
	deg := sm.Degraded()
	if deg == 0 {
		t.Fatal("armed core.trans.nan left StreamMatcher.Degraded at 0")
	}
	if got := counter.Value() - before; got != int64(deg) {
		t.Errorf("hmm.match.degraded moved by %d, stream counted %d", got, deg)
	}
	wh := m.WeightsHash()
	data, err := EncodeStreamSnapshot(sm, "degraded", wh)
	if err != nil {
		t.Fatal(err)
	}
	info, err := InspectStreamSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeStreamSnapshot(m, wh, data)
	if err != nil {
		t.Fatal(err)
	}
	if info.Degraded != int64(deg) || snap.SM.Degraded() != deg {
		t.Errorf("degraded count %d: snapshot says %d, restored matcher %d", deg, info.Degraded, snap.SM.Degraded())
	}
}

// TestIdleStreamPinsNoTable: between pushes a streaming session holds
// nothing sized by the network — the road-probability table and the fold
// scratch go back to their pools before ScoreBatch returns — so no slice
// reachable from it has min(|S|, |N|) elements or more.
func TestIdleStreamPinsNoTable(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	limit := min(m.Net.NumSegments(), m.Net.NumNodes())
	sm := m.NewStream(2)
	ss := sm.M.Obs.(*session)
	var check func(path string, v reflect.Value)
	check = func(path string, v reflect.Value) {
		switch v.Kind() {
		case reflect.Slice:
			if v.Cap() >= limit {
				t.Errorf("idle session pins %s: len %d cap %d, network has %d segments and %d nodes",
					path, v.Len(), v.Cap(), m.Net.NumSegments(), m.Net.NumNodes())
			}
		case reflect.Pointer:
			if !v.IsNil() && v.Type() != reflect.TypeOf(m) {
				check(path, v.Elem())
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				check(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		}
	}
	scored := 0
	for _, p := range d.TestTrips()[0].Cell[:3] {
		if _, err := sm.Push(p); err != nil {
			t.Fatal(err)
		}
		if ss.keysN > 1 {
			scored++ // a transition step ran and grew the keys
		}
		check("session", reflect.ValueOf(ss))
	}
	if scored == 0 {
		t.Fatal("no push reached transition scoring")
	}
	if len(ss.embW) == 0 || limit <= len(ss.embW) {
		t.Fatalf("fixture too small to tell: %d embedding values held, limit %d", len(ss.embW), limit)
	}
}

// TestStreamLastContextEqualsBatch: a stream's Eq. 6 differs from the
// batch's only in which keys a point sees, not in how a score is summed
// (both read their weights from one nn.AttKeys form). So the last point
// of a trip pushed a point at a time, which has seen every key, has the
// batch session's context row bit for bit.
func TestStreamLastContextEqualsBatch(t *testing.T) {
	cfg := fastConfig()
	cfg.Dim = 128
	trips := 0
	for _, seed := range []int{10, 12, 14, 20} {
		d := testDataset(t, seed)
		m, err := New(d, d.TrainTrips(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.RefreshEmbeddings()
		for _, tr := range d.TestTrips() {
			ct := tr.Cell
			ss := &session{m: m}
			for i := range ct {
				ss.extend(ct[:i+1])
			}
			whole, last := m.newSession(ct), len(ct)-1
			want, got := whole.row(whole.ctxW, last), ss.row(ss.ctxW, last)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Errorf("dataset %d trip %d (%d points) dim %d: stream context %v, batch %v", seed, tr.ID, len(ct), j, got[j], want[j])
					break
				}
			}
			trips++
		}
	}
	if trips == 0 {
		t.Fatal("no test trips")
	}
}
