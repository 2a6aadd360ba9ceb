package nn

import "math"

// Forward-only (inference) implementations of the layers, operating on
// plain matrices without tape bookkeeping. These are used on the hot
// matching path where gradients are not needed.
//
// Every layer has two forms: Apply, which allocates its result, and an
// allocation-free form (ApplyInto / ApplyWS) that writes into
// caller-owned storage or a Workspace. The batched forms score a whole
// k×d candidate batch in one MatMulInto instead of k single-row calls;
// they are arithmetically identical to row-at-a-time application
// because each output row accumulates in the same order either way.

// Apply computes x·W + b without autodiff.
func (l *Linear) Apply(x *Mat) *Mat {
	out := NewMat(x.R, l.W.W.C)
	l.ApplyInto(out, x)
	return out
}

// ApplyInto computes dst = x·W + b without allocating. dst must be
// preallocated x.R×out and must not alias x.
func (l *Linear) ApplyInto(dst, x *Mat) {
	MatMulInto(dst, x, l.W.W)
	bias := l.B.W.W
	for i := 0; i < dst.R; i++ {
		row := dst.Row(i)
		for j := range row {
			row[j] += bias[j]
		}
	}
}

// ApplyReLU2 returns ReLU(h)·W + b for a layer of two outputs — the
// tail of a two-class MLP, given one pre-activation hidden row — without
// a ReLU pass or a product: each positive unit goes straight into the two
// running sums. It is bit-equal to the ReLU followed by ApplyInto: the
// same left-to-right sum over the units, the same skip of units that are
// zero after the ReLU (matMulRows skips a zero multiplier, and -0 is
// one), a NaN unit carried into both sums, the bias added last.
func (l *Linear) ApplyReLU2(h []float64) (float64, float64) {
	w, b := l.W.W.W[:2*len(h)], l.B.W.W
	var a0, a1 float64
	for k, v := range h {
		if v <= 0 {
			continue
		}
		a0 += v * w[2*k]
		a1 += v * w[2*k+1]
	}
	return a0 + b[0], a1 + b[1]
}

// Apply runs the MLP forward without autodiff.
func (m *MLP) Apply(x *Mat) *Mat {
	for i, l := range m.Layers {
		x = l.Apply(x)
		if i < len(m.Layers)-1 {
			applyActInPlace(m.Act, x)
		}
	}
	return x
}

// ApplyWS runs the MLP forward using workspace scratch for every
// intermediate and the output. The returned matrix is owned by ws and
// is invalidated by ws.Reset.
func (m *MLP) ApplyWS(ws *Workspace, x *Mat) *Mat {
	for i, l := range m.Layers {
		out := ws.Take(x.R, l.W.W.C)
		l.ApplyInto(out, x)
		if i < len(m.Layers)-1 {
			applyActInPlace(m.Act, out)
		}
		x = out
	}
	return x
}

func applyActInPlace(a Activation, x *Mat) {
	switch a {
	case ActTanh:
		for i, v := range x.W {
			x.W[i] = math.Tanh(v)
		}
	case ActSigmoid:
		for i, v := range x.W {
			x.W[i] = 1 / (1 + math.Exp(-v))
		}
	default:
		for i, v := range x.W {
			if v < 0 {
				x.W[i] = 0
			}
		}
	}
}

// Apply computes the attention read-out without autodiff: query 1×d,
// keys/values n×d. It returns the 1×d output and the attention weights.
func (a *Attention) Apply(query, keys, values *Mat) (*Mat, []float64) {
	out := NewMat(1, values.C)
	w := make([]float64, keys.R)
	a.ApplyInto(out, w, nil, query, keys, values)
	return out, w
}

// ApplyWS computes the attention read-out with all scratch (and the
// outputs) taken from ws. The returned matrix and weights alias
// workspace storage and are invalidated by ws.Reset.
func (a *Attention) ApplyWS(ws *Workspace, query, keys, values *Mat) (*Mat, []float64) {
	out := ws.Take(1, values.C)
	w := ws.TakeVec(keys.R)
	a.ApplyInto(out, w, ws, query, keys, values)
	return out, w
}

// SelfApplyAllWS computes, for every row q_i of x, the additive
// attention read-out with x as queries, keys, and values — the batched
// form of n separate ApplyWS calls (Eq. 6 over a whole trajectory).
// Because the additive score W_v·tanh(W_q·q_i ⊕ W_k·k_j) separates into
// a query term and a key term, the n² scores reduce to two n×h
// projections and an outer sum, and the weighted read-out becomes one
// n×n · n×d product. The returned n×d matrix is owned by ws.
func (a *Attention) SelfApplyAllWS(ws *Workspace, x *Mat) *Mat {
	n, h := x.R, a.Wq.W.C
	q := ws.Take(n, h)
	MatMulInto(q, x, a.Wq.W)
	k := ws.Take(n, a.Wk.W.C)
	MatMulInto(k, x, a.Wk.W)
	wv := a.Wv.W.W
	qdot := ws.TakeVec(n)
	kdot := ws.TakeVec(n)
	for i := 0; i < n; i++ {
		var sq, sk float64
		for j, v := range q.Row(i) {
			sq += math.Tanh(v) * wv[j]
		}
		for j, v := range k.Row(i) {
			sk += math.Tanh(v) * wv[h+j]
		}
		qdot[i], kdot[i] = sq, sk
	}
	w := ws.Take(n, n)
	for i := 0; i < n; i++ {
		row := w.Row(i)
		for j := range row {
			row[j] = qdot[i] + kdot[j]
		}
		softmaxInto(row, row)
	}
	out := ws.Take(n, x.C)
	MatMulInto(out, w, x)
	return out
}

// AttKeys caches the key-side state of additive attention over a
// key/value matrix that only ever grows by rows, so repeated read-outs
// (the per-road trajectory relevance of Eq. 10, asked for every route
// segment of a trajectory) skip the n×h key projection and its tanh
// reduction.
type AttKeys struct {
	att  *Attention
	kv   *Mat      // shared keys-and-values matrix
	kdot []float64 // per-key additive score contribution
}

// PrecomputeKeys builds the key-side cache for kv (used as both keys
// and values). kv is retained by reference and its rows must stay
// unchanged for the cache's lifetime.
func (a *Attention) PrecomputeKeys(kv *Mat) *AttKeys {
	ak := &AttKeys{att: a}
	ak.Grow(kv)
	return ak
}

// Grow extends the cache to all of kv, whose leading rows must be the
// ones it already covers (the backing array may have moved): only the
// new rows are projected. A key's score contribution depends on its own
// row alone, so growing row by row is bit-equal to PrecomputeKeys over
// the final matrix.
func (ak *AttKeys) Grow(kv *Mat) {
	a, seen := ak.att, len(ak.kdot)
	ak.kv = kv
	if kv.R == seen {
		return
	}
	h := a.Wq.W.C
	k := NewMat(kv.R-seen, a.Wk.W.C)
	MatMulInto(k, kv.Rows(seen, kv.R), a.Wk.W)
	wv := a.Wv.W.W
	for i := 0; i < k.R; i++ {
		var s float64
		for j, v := range k.Row(i) {
			s += math.Tanh(v) * wv[h+j]
		}
		ak.kdot = append(ak.kdot, s)
	}
}

// QueryScoresInto writes the query half of the additive score for every
// row of queries (m×d) into dst (length m): w_v[:h]·tanh(W_q·q). It is
// constant across keys, so a fixed query set — the segment embeddings of
// Eq. 9 — pays the d×h projection and its tanh reduction once per model
// (core.Model.transQ) rather than once per read-out. ws supplies the m×h
// projection scratch (nil allocates it).
func (a *Attention) QueryScoresInto(dst []float64, ws *Workspace, queries *Mat) {
	var q *Mat
	if ws != nil {
		q = ws.Take(queries.R, a.Wq.W.C)
	} else {
		q = NewMat(queries.R, a.Wq.W.C)
	}
	MatMulInto(q, queries, a.Wq.W)
	wv := a.Wv.W.W
	for r := range dst {
		var qdot float64
		for j, v := range q.Row(r) {
			qdot += math.Tanh(v) * wv[j]
		}
		dst[r] = qdot
	}
}

// WeightsInto writes the attention weights of one query over the cached
// keys into w (one entry per key), given the query's score half qdot
// (QueryScoresInto): w_i = softmax_i(qdot + kdot_i).
func (ak *AttKeys) WeightsInto(w []float64, qdot float64) {
	for i, kd := range ak.kdot {
		w[i] = qdot + kd
	}
	softmaxInto(w, w)
}

// QueryAllWS computes the attention read-out for every row of queries
// (m×d) against the cached keys: the query halves in one product
// (QueryScoresInto), then per row the weights (WeightsInto) and the
// weighted sum of the values in key order. Rows are independent
// (MatMulInto accumulates each output row on its own), so row r of the
// result is bit-identical to the read-out of queries row r alone. The
// returned m×d matrix is owned by ws.
func (ak *AttKeys) QueryAllWS(ws *Workspace, queries *Mat) *Mat {
	qdot := ws.TakeVec(queries.R)
	ak.att.QueryScoresInto(qdot, ws, queries)
	n := ak.kv.R
	w := ws.TakeVec(n)
	out := ws.Take(queries.R, ak.kv.C)
	for r := 0; r < queries.R; r++ {
		ak.WeightsInto(w, qdot[r])
		orow := out.Row(r)
		for j := range orow {
			orow[j] = 0
		}
		for i := 0; i < n; i++ {
			row := ak.kv.Row(i)
			wi := w[i]
			for j, v := range row {
				orow[j] += wi * v
			}
		}
	}
	return out
}

// ApplyInto computes the attention read-out into caller-owned storage:
// out must be 1×values.C, weights length keys.R. ws supplies the q/k
// projection scratch (nil allocates it). The additive score
// W_v·tanh(W_q·q ⊕ W_k·k_j) splits into a query half that is constant
// across j and a per-key half, so the query contribution is reduced
// once instead of re-copied and re-reduced per key.
func (a *Attention) ApplyInto(out *Mat, weights []float64, ws *Workspace, query, keys, values *Mat) {
	n := keys.R
	h := a.Wq.W.C
	var q, k *Mat
	if ws != nil {
		q = ws.Take(1, h)
		k = ws.Take(n, a.Wk.W.C)
	} else {
		q = NewMat(1, h)
		k = NewMat(n, a.Wk.W.C)
	}
	MatMulInto(q, query, a.Wq.W)
	MatMulInto(k, keys, a.Wk.W)
	// Constant query half of every additive score.
	var qdot float64
	wv := a.Wv.W.W
	for j, v := range q.W {
		qdot += math.Tanh(v) * wv[j]
	}
	scores := weights // reuse the output slice as score scratch
	for i := 0; i < n; i++ {
		s := qdot
		row := k.Row(i)
		for j, v := range row {
			s += math.Tanh(v) * wv[h+j]
		}
		scores[i] = s
	}
	softmaxInto(weights, scores)
	for j := range out.W {
		out.W[j] = 0
	}
	for i := 0; i < n; i++ {
		row := values.Row(i)
		wi := weights[i]
		for j, v := range row {
			out.W[j] += wi * v
		}
	}
}
