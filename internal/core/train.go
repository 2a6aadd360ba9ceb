package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/hmm"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Training telemetry (internal/obs): per-epoch loss and wall-clock for
// both phases, surfaced as structured logs and histograms.
var (
	obsTrainEpochs  = obs.Default.Counter("train.epochs")
	obsTrainEpochS  = obs.Default.Histogram("train.epoch.seconds", obs.LatencyBuckets)
	obsTrainLoss    = obs.Default.Gauge("train.loss.milli") // last epoch mean loss ×1000
	obsTrainSeconds = obs.Default.Histogram("train.total.seconds", obs.LatencyBuckets)
)

// Training settings no caller varies; the paper fixes the last three.
const (
	// batchTrips is how many trips share one encoder forward pass per
	// phase-1 optimization step.
	batchTrips = 4
	// negPerPos is the undersampling ratio of negative to positive
	// road samples.
	negPerPos = 3
	// adamLR and adamWeightDecay are Adam's learning rate and weight
	// decay in both phases (paper: 1e-3 and 1e-4).
	adamLR          = 1e-3
	adamWeightDecay = 1e-4
	// labelSmooth is the cross-entropy label smoothing (paper: 0.1).
	labelSmooth = 0.1
)

// Train builds and trains an LHMM on the dataset's training split
// (§IV-D "Training Process"): phase 1 trains the encoder and the
// implicit correlation networks by road classification; phase 2
// fine-tunes the fuse MLPs that blend implicit and explicit features.
func Train(ds *traj.Dataset, cfg Config) (*Model, error) {
	start := time.Now()
	trips := ds.TrainTrips()
	if len(trips) == 0 {
		return nil, fmt.Errorf("core: no training trips")
	}
	m, err := New(ds, trips, cfg)
	if err != nil {
		return nil, err
	}
	if err := m.fit(ds, trips); err != nil {
		return nil, err
	}
	obsTrainSeconds.ObserveSince(start)
	obs.Logger().Info("core: training finished",
		"seconds", time.Since(start).Seconds(),
		"dist_scale", m.distScale.W.W[0], "gamma", m.transGamma.W.W[0])
	return m, nil
}

// fit trains a model New built from the training trips of ds: both
// phases, then the calibrations.
func (m *Model) fit(ds *traj.Dataset, trips []*traj.Trip) error {
	rng := rand.New(rand.NewSource(m.Cfg.Seed + 1))
	samples := make([]*tripSample, 0, len(trips))
	for _, tr := range trips {
		if s := m.prepareSample(tr); s != nil {
			samples = append(samples, s)
		}
	}
	if len(samples) == 0 {
		return fmt.Errorf("core: no usable training trips")
	}
	obs.Logger().Info("core: training started",
		"trips", len(trips), "usable", len(samples),
		"dim", m.Cfg.Dim, "epochs", m.Cfg.Epochs, "fuse_epochs", m.Cfg.FuseEpochs)

	m.calibrateDistScale(samples)
	m.pretrainFuse(rng)
	if err := m.trainImplicit(samples, rng); err != nil {
		return err
	}
	m.RefreshEmbeddings()
	if err := m.trainFuse(samples, rng); err != nil {
		return err
	}
	m.calibrateGamma(ds)
	return nil
}

// calibrateGamma selects the transition-sharpening exponent on the
// validation split: the fuse net's probabilities are flatter than a
// fully-trained learner's, and a sharper P_T both punishes detours and
// lets the shortcut optimization (Algorithm 2) outscore paths through
// noisy points. Falls back to a training subset when the validation
// split is empty.
func (m *Model) calibrateGamma(ds *traj.Dataset) {
	trips := ds.ValidTrips()
	if len(trips) == 0 {
		trips = ds.TrainTrips()
	}
	if len(trips) > 16 {
		trips = trips[:16]
	}
	if len(trips) == 0 {
		return
	}
	bestGamma, bestScore := 1.0, math.Inf(1)
	for _, gamma := range []float64{1, 2, 4, 8} {
		m.transGamma.W.W[0] = gamma
		var cmf float64
		var n int
		for _, tr := range trips {
			res, err := m.Match(tr.Cell)
			if err != nil {
				continue
			}
			pm := metrics.EvalPath(m.Net, res.Path, tr.Path, 50)
			cmf += pm.CMF + 0.3*pm.RMF // corridor accuracy with a detour penalty
			n++
		}
		if n == 0 {
			continue
		}
		if score := cmf / float64(n); score < bestScore {
			bestScore, bestGamma = score, gamma
		}
	}
	m.transGamma.W.W[0] = bestGamma
	obs.Logger().Debug("core: transition gamma calibrated",
		"gamma", bestGamma, "validation_trips", len(trips))
}

// WithShortcuts returns a copy of the trained model m that matches with
// k shortcut predecessors (Config.Shortcuts) and holds its own
// transition exponent γ, calibrated on ds as Train calibrates it.
// Training reads Shortcuts only in that calibration, so the copy equals
// the model Train returns for m's configuration with Shortcuts k, at the
// cost of the calibration alone. It shares every other weight with m,
// and m is not changed. It panics with ErrInferenceOnly on a loaded
// model, whose weights hash covers the file's γ.
func (m *Model) WithShortcuts(ds *traj.Dataset, k int) *Model {
	if m.Enc == nil {
		panic(ErrInferenceOnly)
	}
	mm := *m
	mm.Cfg.Shortcuts = k
	mm.transGamma = nn.NewZeroParam(m.transGamma.Name, 1, 1)
	mm.calibrateGamma(ds)
	return &mm
}

// tripSample is the preprocessed training view of one trip.
type tripSample struct {
	tr      *traj.Trip
	pathSet map[roadnet.SegmentID]bool
	// pointPos assigns each ground-truth path segment to the trajectory
	// point whose tower is closest to it — the positive (point, road)
	// pairs of the observation classification task.
	pointPos [][]roadnet.SegmentID
	// negPool holds, per point, nearby segments off the path (negative
	// samples).
	negPool [][]roadnet.SegmentID
}

// prepareSample builds the training view; trips with no usable points
// return nil.
func (m *Model) prepareSample(tr *traj.Trip) *tripSample {
	if len(tr.Cell) < 2 || len(tr.Path) == 0 {
		return nil
	}
	s := &tripSample{
		tr:       tr,
		pathSet:  tr.PathSet(),
		pointPos: make([][]roadnet.SegmentID, len(tr.Cell)),
		negPool:  make([][]roadnet.SegmentID, len(tr.Cell)),
	}
	for _, sid := range tr.Path {
		mid := m.Net.Segment(sid).Midpoint()
		best, bestD := -1, math.Inf(1)
		for i, cp := range tr.Cell {
			if d := m.Cells.Tower(cp.Tower).P.DistSq(mid); d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			s.pointPos[best] = append(s.pointPos[best], sid)
		}
	}
	// Negatives come from the same pool inference scores, so the
	// classifier sees the full distance distribution it must rank.
	for i := range tr.Cell {
		for _, sid := range m.candidatePool(tr.Cell, i) {
			if !s.pathSet[sid] {
				s.negPool[i] = append(s.negPool[i], sid)
			}
		}
	}
	return s
}

// calibrateDistScale sets the distance normalization from the mean
// point-to-positive-road distance across the training data.
func (m *Model) calibrateDistScale(samples []*tripSample) {
	var sum float64
	var n int
	for _, s := range samples {
		for i, pos := range s.pointPos {
			p := s.tr.Cell[i].P
			for _, sid := range pos {
				sum += m.Net.DistTo(sid, p)
				n++
			}
		}
	}
	if n > 0 {
		m.distScale.W.W[0] = math.Max(200, sum/float64(n))
	}
}

// pair is one labeled (point, road) classification example.
type pair struct {
	point int
	seg   roadnet.SegmentID
	label int
}

// samplePairs draws balanced positive/negative pairs for one trip.
func (s *tripSample) samplePairs(rng *rand.Rand, maxPairs int) []pair {
	var out []pair
	posBudget := maxPairs / (1 + negPerPos)
	if posBudget < 1 {
		posBudget = 1
	}
	// Points visited in random order for coverage.
	order := rng.Perm(len(s.tr.Cell))
	for _, i := range order {
		if len(out) >= posBudget*(1+negPerPos) {
			break
		}
		if len(s.pointPos[i]) == 0 || len(s.negPool[i]) == 0 {
			continue
		}
		posSeg := s.pointPos[i][rng.Intn(len(s.pointPos[i]))]
		out = append(out, pair{point: i, seg: posSeg, label: 1})
		for k := 0; k < negPerPos; k++ {
			negSeg := s.negPool[i][rng.Intn(len(s.negPool[i]))]
			out = append(out, pair{point: i, seg: negSeg, label: 0})
		}
	}
	return out
}

// roadEx is one labeled road of the trajectory-road classification.
type roadEx struct {
	seg   roadnet.SegmentID
	label int
}

// sampleRoads draws one trip's trajectory-road examples: positives from
// the path, negatives from the pooled negatives of random points.
func (s *tripSample) sampleRoads(rng *rand.Rand, maxPairs int) []roadEx {
	posBudget := maxPairs / (1 + negPerPos)
	if posBudget < 1 {
		posBudget = 1
	}
	var exs []roadEx
	for k := 0; k < posBudget; k++ {
		exs = append(exs, roadEx{s.tr.Path[rng.Intn(len(s.tr.Path))], 1})
		for j := 0; j < negPerPos; j++ {
			i := rng.Intn(len(s.negPool))
			if len(s.negPool[i]) == 0 {
				continue
			}
			exs = append(exs, roadEx{s.negPool[i][rng.Intn(len(s.negPool[i]))], 0})
		}
	}
	return exs
}

// tripDraw is one trip's phase-1 examples, drawn before the batch's
// forward pass so that pass computes only the rows they reach.
type tripDraw struct {
	s     *tripSample
	obs   []pair   // Eq. 7 examples; none when disabled
	trans []roadEx // Eq. 10 examples; none when disabled
}

// drawBatch draws a batch's examples trip by trip, observation pairs
// then roads: the only rng use of a phase-1 step, in a fixed order.
func (m *Model) drawBatch(batch []*tripSample, rng *rand.Rand) []tripDraw {
	draws := make([]tripDraw, len(batch))
	for i, s := range batch {
		draws[i].s = s
		if !m.Cfg.DisableImplicitObs {
			draws[i].obs = s.samplePairs(rng, m.Cfg.PairsPerTrip)
		}
		if !m.Cfg.DisableImplicitTrans {
			draws[i].trans = s.sampleRoads(rng, m.Cfg.PairsPerTrip)
		}
	}
	return draws
}

// fieldRows returns the nodes the draws' losses read, ascending: the
// towers of every point of a trip with examples and every drawn road.
func (m *Model) fieldRows(draws []tripDraw) []int {
	var rows []int
	for _, d := range draws {
		if len(d.obs) == 0 && len(d.trans) == 0 {
			continue
		}
		for _, cp := range d.s.tr.Cell {
			rows = append(rows, m.Graph.TowerNode(cp.Tower))
		}
		for _, pr := range d.obs {
			rows = append(rows, m.Graph.SegNode(pr.seg))
		}
		for _, ex := range d.trans {
			rows = append(rows, m.Graph.SegNode(ex.seg))
		}
	}
	slices.Sort(rows)
	return slices.Compact(rows)
}

// batchLoss builds the batch's mean classification loss on the tape
// over H, the encoder's output (node v is row local(v)), and returns it
// with the number of per-trip losses it averages; nil when no trip drew
// an example.
func (m *Model) batchLoss(tp *nn.Tape, H *nn.T, local func(v int) int, draws []tripDraw) (*nn.T, int) {
	var losses []*nn.T
	for _, d := range draws {
		if len(d.obs) > 0 {
			losses = append(losses, m.obsLoss(tp, H, local, d.s, d.obs))
		}
		if len(d.trans) > 0 {
			losses = append(losses, m.transLoss(tp, H, local, d.s, d.trans))
		}
	}
	if len(losses) == 0 {
		return nil, 0
	}
	loss := losses[0]
	for _, l := range losses[1:] {
		loss = tp.Add(loss, l)
	}
	return tp.Scale(loss, 1/float64(len(losses))), len(losses)
}

// trainImplicit runs phase 1: joint training of the encoder, the
// context attention networks, and the implicit correlation MLPs via
// binary road classification with undersampled negatives and label
// smoothing. Each step runs the encoder over its batch's receptive
// field only (mrg.Encoder.Field), which gives the loss and gradients of
// the all-nodes pass bit for bit. A non-finite loss or gradient norm
// stops training with an error before the optimizer writes it into the
// weights.
func (m *Model) trainImplicit(samples []*tripSample, rng *rand.Rand) error {
	opt := nn.NewAdam()
	opt.LR = adamLR
	opt.WeightDecay = adamWeightDecay
	params := m.implicitParams()

	for epoch := 0; epoch < m.Cfg.Epochs; epoch++ {
		epochStart := time.Now()
		var lossSum float64
		var lossN, batches, rfSum, rfMax int
		perm := rng.Perm(len(samples))
		for at := 0; at < len(perm); at += batchTrips {
			end := min(at+batchTrips, len(perm))
			batch := make([]*tripSample, 0, end-at)
			for _, si := range perm[at:end] {
				batch = append(batch, samples[si])
			}
			draws := m.drawBatch(batch, rng)
			rows := m.fieldRows(draws)
			if len(rows) == 0 {
				continue
			}
			f := m.Enc.Field(m.Graph, rows)
			tp := nn.NewTape()
			loss, n := m.batchLoss(tp, m.Enc.Forward(tp, f), f.Local, draws)
			step := fmt.Sprintf("core: phase 1 epoch %d batch %d", epoch+1, at/batchTrips+1)
			if !isFinite(loss.Val.W[0]) {
				return fmt.Errorf("%s: non-finite loss", step)
			}
			if err := tp.Backward(loss); err != nil {
				return fmt.Errorf("%s: %w", step, err)
			}
			if !isFinite(nn.ClipGradNorm(params, 5)) {
				return fmt.Errorf("%s: non-finite gradient norm", step)
			}
			opt.Step(params)
			lossSum += loss.Val.W[0] * float64(n)
			lossN += n
			rf := len(f.Rows(0))
			batches++
			rfSum += rf
			rfMax = max(rfMax, rf)
		}
		meanLoss := math.NaN()
		if lossN > 0 {
			meanLoss = lossSum / float64(lossN)
			obsTrainLoss.Set(int64(meanLoss * 1000))
		}
		rfMean := math.NaN()
		if batches > 0 {
			rfMean = float64(rfSum) / float64(batches)
		}
		obsTrainEpochs.Inc()
		obsTrainEpochS.ObserveSince(epochStart)
		obs.Logger().Info("core: phase 1 epoch",
			"epoch", epoch+1, "of", m.Cfg.Epochs,
			"loss", meanLoss, "seconds", time.Since(epochStart).Seconds(),
			"rf_rows_mean", rfMean, "rf_rows_max", rfMax,
			"rf_fraction", rfMean/float64(m.Graph.NumNodes()))
	}
	return nil
}

// isFinite reports whether v is neither NaN nor ±Inf.
func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// obsLoss builds the observation classification loss of one trip's
// pairs on the tape: Eq. 6 context representations feed Eq. 7 logits.
func (m *Model) obsLoss(tp *nn.Tape, H *nn.T, local func(int) int, s *tripSample, pairs []pair) *nn.T {
	ptEmb := tp.Gather(H, m.towerRows(local, s))

	// Context representation per distinct point in the sample.
	ctx := make(map[int]*nn.T)
	for _, pr := range pairs {
		if _, ok := ctx[pr.point]; ok {
			continue
		}
		q := tp.Gather(ptEmb, []int{pr.point})
		out, _ := m.ObsAtt.Forward(tp, q, ptEmb, ptEmb)
		ctx[pr.point] = out
	}
	rows := make([]*nn.T, len(pairs))
	labels := make([]int, len(pairs))
	for i, pr := range pairs {
		segT := tp.Gather(H, []int{local(m.Graph.SegNode(pr.seg))})
		rows[i] = tp.ConcatCols(segT, ctx[pr.point])
		labels[i] = pr.label
	}
	logits := m.ObsMLP.Forward(tp, tp.StackRows(rows))
	target := nn.SmoothedTargets(len(pairs), 2, labels, labelSmooth)
	return tp.CrossEntropy(logits, target)
}

// transLoss builds the trajectory-road classification loss of one
// trip's roads: Eq. 9 trajectory representations feed Eq. 10 logits.
func (m *Model) transLoss(tp *nn.Tape, H *nn.T, local func(int) int, s *tripSample, exs []roadEx) *nn.T {
	ptEmb := tp.Gather(H, m.towerRows(local, s))

	rows := make([]*nn.T, len(exs))
	labels := make([]int, len(exs))
	for i, ex := range exs {
		segT := tp.Gather(H, []int{local(m.Graph.SegNode(ex.seg))})
		xl, _ := m.TransAtt.Forward(tp, segT, ptEmb, ptEmb)
		rows[i] = tp.ConcatCols(segT, xl)
		labels[i] = ex.label
	}
	logits := m.TransMLP.Forward(tp, tp.StackRows(rows))
	target := nn.SmoothedTargets(len(exs), 2, labels, labelSmooth)
	return tp.CrossEntropy(logits, target)
}

// towerRows returns the rows of the encoder's output that hold the
// towers of s's points, in point order.
func (m *Model) towerRows(local func(int) int, s *tripSample) []int {
	idx := make([]int, len(s.tr.Cell))
	for i, cp := range s.tr.Cell {
		idx[i] = local(m.Graph.TowerNode(cp.Tower))
	}
	return idx
}

// pretrainFuse initializes both fuse MLPs (Eqs. 8 and 12) to pass
// through their explicit-feature channel: with inputs [implicit,
// explicit, extra], the output starts as the explicit similarity
// itself. This makes the untrained learners behave like the classical
// distance models (Eqs. 2–3), so fine-tuning on real labels can only
// refine from a physically sane baseline — important at small training
// scales where the fuse nets would otherwise start arbitrary.
func (m *Model) pretrainFuse(rng *rand.Rand) {
	opt := nn.NewAdam()
	opt.LR = 0.01
	opt.WeightDecay = 0
	for _, fuse := range []*nn.MLP{m.ObsFuse, m.TransFuse} {
		params := fuse.Params()
		for step := 0; step < 300; step++ {
			const batch = 32
			feats := nn.NewMat(batch, 3)
			target := nn.NewMat(batch, 2)
			for i := 0; i < batch; i++ {
				f := [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
				copy(feats.Row(i), f[:])
				target.Set(i, 0, 1-f[1])
				target.Set(i, 1, f[1])
			}
			tp := nn.NewTape()
			loss := tp.CrossEntropy(fuse.Forward(tp, tp.Const(feats)), target)
			if err := tp.Backward(loss); err != nil {
				// Pretraining failure is non-fatal; phase 2 still runs.
				break
			}
			opt.Step(params)
		}
	}
}

// trainFuse runs phase 2: with embeddings and implicit networks frozen,
// fine-tune the fuse MLPs (Eqs. 8 and 12) that blend the implicit
// probability with the explicit features.
func (m *Model) trainFuse(samples []*tripSample, rng *rand.Rand) error {
	opt := nn.NewAdam()
	opt.LR = adamLR
	opt.WeightDecay = adamWeightDecay

	obsParams := m.ObsFuse.Params()
	transParams := m.TransFuse.Params()

	for epoch := 0; epoch < m.Cfg.FuseEpochs; epoch++ {
		epochStart := time.Now()
		var lossSum float64
		var lossN int
		perm := rng.Perm(len(samples))
		for _, si := range perm {
			s := samples[si]
			sess := m.newSession(s.tr.Cell)

			if feats, labels := m.obsFuseExamples(s, sess, rng); len(labels) > 0 {
				tp := nn.NewTape()
				logits := m.ObsFuse.Forward(tp, tp.Const(feats))
				target := nn.SmoothedTargets(len(labels), 2, labels, labelSmooth)
				loss := tp.CrossEntropy(logits, target)
				if err := tp.Backward(loss); err != nil {
					return fmt.Errorf("core: phase 2 obs: %w", err)
				}
				lossSum += loss.Val.W[0]
				lossN++
				opt.Step(obsParams)
			}

			if feats, targets := m.transFuseExamples(s, sess, rng); targets != nil {
				tp := nn.NewTape()
				logits := m.TransFuse.Forward(tp, tp.Const(feats))
				loss := tp.CrossEntropy(logits, targets)
				if err := tp.Backward(loss); err != nil {
					return fmt.Errorf("core: phase 2 trans: %w", err)
				}
				lossSum += loss.Val.W[0]
				lossN++
				opt.Step(transParams)
			}
		}
		meanLoss := math.NaN()
		if lossN > 0 {
			meanLoss = lossSum / float64(lossN)
		}
		obsTrainEpochs.Inc()
		obsTrainEpochS.ObserveSince(epochStart)
		obs.Logger().Info("core: phase 2 epoch",
			"epoch", epoch+1, "of", m.Cfg.FuseEpochs,
			"loss", meanLoss, "seconds", time.Since(epochStart).Seconds())
	}
	return nil
}

// obsFuseExamples builds the phase-2 observation examples of one trip:
// features [implicit prob, normalized distance, co-occurrence] with
// on-path labels, balanced by undersampling.
func (m *Model) obsFuseExamples(s *tripSample, sess *session, rng *rand.Rand) (*nn.Mat, []int) {
	type ex struct {
		f     [3]float64
		label int
	}
	var exs []ex
	posBudget := m.Cfg.PairsPerTrip / 2
	if posBudget < 1 {
		posBudget = 1
	}
	order := rng.Perm(len(s.tr.Cell))
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	var posCount int
	for _, i := range order {
		if posCount >= posBudget {
			break
		}
		if len(s.pointPos[i]) == 0 || len(s.negPool[i]) == 0 {
			continue
		}
		posCount++
		mk := func(sid roadnet.SegmentID, label int) ex {
			d := m.Net.DistTo(sid, s.tr.Cell[i].P)
			// The implicit feature comes from the kernel inference
			// scores with, so the fuse net trains on what it will see.
			var imp [1]float64
			ws.Reset()
			m.obsImplicit(ws, sess.row(sess.obsCtx, i), []hmm.Candidate{{Seg: sid}}, imp[:])
			return ex{
				f: [3]float64{
					imp[0],
					m.gaussDist(d),
					m.Graph.CoOccurrenceNorm(s.tr.Cell[i].Tower, sid),
				},
				label: label,
			}
		}
		exs = append(exs, mk(s.pointPos[i][rng.Intn(len(s.pointPos[i]))], 1))
		for k := 0; k < negPerPos; k++ {
			exs = append(exs, mk(s.negPool[i][rng.Intn(len(s.negPool[i]))], 0))
		}
	}
	if len(exs) == 0 {
		return nil, nil
	}
	feats := nn.NewMat(len(exs), 3)
	labels := make([]int, len(exs))
	for i, e := range exs {
		copy(feats.Row(i), e.f[:])
		labels[i] = e.label
	}
	return feats, labels
}

// transFuseExamples builds the phase-2 transition examples: candidate
// routes between consecutive points with soft targets equal to the
// fraction of route segments on the ground-truth path ("the ratio of
// traveled roads to the moving path", §IV-D). The features come from
// the fold inference scores with (pairFeatures); only the target needs
// the materialized route.
//
// Pairs are sampled from the same distribution inference sees — the
// top candidates by learned observation probability — plus one
// injected ground-truth pair per step, so the fuse net learns to
// separate the exact routes Viterbi will compare rather than arbitrary
// ones.
func (m *Model) transFuseExamples(s *tripSample, sess *session, rng *rand.Rand) (*nn.Mat, *nn.Mat) {
	type ex struct {
		f     [3]float64
		ratio float64
	}
	var exs []ex
	if len(s.tr.Cell) < 2 {
		return nil, nil
	}
	ws := nn.GetWorkspace()
	defer nn.PutWorkspace(ws)
	defer sess.releaseTable() // borrowed by the feature passes' fill
	addRoute := func(i int, from, to roadnet.PointOnRoad) {
		route, ok := m.Router.RouteBetween(from, to)
		if !ok || len(route.Segs) == 0 {
			return
		}
		var onPath int
		for _, sid := range route.Segs {
			if s.pathSet[sid] {
				onPath++
			}
		}
		ratio := float64(onPath) / float64(len(route.Segs))
		exs = append(exs, ex{f: sess.pairFeatures(ws, s.tr.Cell, i, from, to), ratio: ratio})
	}
	candK := m.Cfg.K / 3
	if candK < 4 {
		candK = 4
	}
	budget := m.Cfg.PairsPerTrip
	if budget < 2 {
		budget = 2
	}
	// Each point's candidates are scored once, on its first draw:
	// Candidates is deterministic, and no draw depends on it.
	cands := make([][]hmm.Candidate, len(s.tr.Cell))
	scored := make([]bool, len(s.tr.Cell))
	candidates := func(i int) []hmm.Candidate {
		if !scored[i] {
			cands[i], scored[i] = sess.Candidates(s.tr.Cell, i, candK), true
		}
		return cands[i]
	}
	for k := 0; k < budget; k++ {
		i := 1 + rng.Intn(len(s.tr.Cell)-1)
		fromCands := candidates(i - 1)
		toCands := candidates(i)
		if len(fromCands) == 0 || len(toCands) == 0 {
			continue
		}
		fc := fromCands[rng.Intn(len(fromCands))]
		tc := toCands[rng.Intn(len(toCands))]
		addRoute(i, fc.Pos(), tc.Pos())
		// Inject the ground-truth movement for this step when both
		// points have positives: route between on-path roads is the
		// clean ratio≈1 example.
		if len(s.pointPos[i-1]) > 0 && len(s.pointPos[i]) > 0 {
			gFrom := s.pointPos[i-1][rng.Intn(len(s.pointPos[i-1]))]
			gTo := s.pointPos[i][rng.Intn(len(s.pointPos[i]))]
			_, ff := m.Net.Project(gFrom, s.tr.Cell[i-1].P)
			_, tf := m.Net.Project(gTo, s.tr.Cell[i].P)
			addRoute(i,
				roadnet.PointOnRoad{Seg: gFrom, Frac: ff},
				roadnet.PointOnRoad{Seg: gTo, Frac: tf},
			)
		}
	}
	if len(exs) == 0 {
		return nil, nil
	}
	feats := nn.NewMat(len(exs), 3)
	targets := nn.NewMat(len(exs), 2)
	for i, e := range exs {
		copy(feats.Row(i), e.f[:])
		targets.Set(i, 0, 1-e.ratio)
		targets.Set(i, 1, e.ratio)
	}
	return feats, targets
}

// pairFeatures is the Eq. 12 input of the one movement from → to into
// point i: a one-pair call to ScoreBatch's feature passes, so phase 2
// trains the fuse MLP on exactly the rows inference feeds it. The pair
// must be reachable; ws is Reset.
func (s *session) pairFeatures(ws *nn.Workspace, ct traj.CellTrajectory, i int, from, to roadnet.PointOnRoad) [3]float64 {
	a := [1]hmm.Candidate{{Seg: from.Seg, Frac: from.Frac}}
	b := [1]hmm.Candidate{{Seg: to.Seg, Frac: to.Frac}}
	var out [1]float64
	ws.Reset()
	return [3]float64(s.foldFeatures(ws, ct, i, a[:], b[:], nil, out[:]).W)
}
