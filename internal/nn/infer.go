package nn

import "math"

// Forward-only (inference) implementations of the layers, operating on
// plain matrices without tape bookkeeping. These are used on the hot
// matching path where gradients are not needed.
//
// Linear and MLP have two forms: Apply, which allocates its result, and
// an allocation-free form (ApplyInto / ApplyWS) that writes into
// caller-owned storage or a Workspace. The batched forms score a whole
// k×d candidate batch in one MatMulInto instead of k single-row calls;
// they are arithmetically identical to row-at-a-time application
// because each output row accumulates in the same order either way.
// Attention has one inference form, AttKeys (below).

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
// zero after the ReLU (matMulRows skips a zero multiplier; the ReLU maps
// −0 and NaN to +0, as the tape's does), the bias added last.
func (l *Linear) ApplyReLU2(h []float64) (float64, float64) {
	w, b := l.W.W.W[:2*len(h)], l.B.W.W
	var a0, a1 float64
	for k, v := range h {
		if !(v > 0) {
			continue
		}
		a0 += v * w[2*k]
		a1 += v * w[2*k+1]
	}
	return a0 + b[0], a1 + b[1]
}

// ApplyReLU2Rows sets dst[2r], dst[2r+1] to ApplyReLU2(h.Row(r)) for
// every row of h, bias included; dst must hold 2·h.R values. On amd64
// with AVX2, when h.C is a multiple of 4 and W is all finite, each block
// of four rows goes through one assembly kernel (reluRows), bit-equal to
// ApplyReLU2; the rows left over and every call the gate refuses go
// through ApplyReLU2.
func (l *Linear) ApplyReLU2Rows(dst []float64, h *Mat) {
	r := reluRows(dst[:2*h.R], h, l.W.W.W[:2*h.C], l.B.W.W[:2])
	for ; r < h.R; r++ {
		dst[2*r], dst[2*r+1] = l.ApplyReLU2(h.Row(r))
	}
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
// is invalidated by ws.Reset. A two-class ReLU head (the Eq. 8 and
// Eq. 12 fuse MLPs) folds its last hidden ReLU into the output layer's
// ApplyReLU2Rows, which is bit-equal to the ReLU followed by ApplyInto
// and reads four rows at a time where its AVX2 gate admits them; an
// R×2 Mat lays its rows out as ApplyReLU2Rows writes them.
func (m *MLP) ApplyWS(ws *Workspace, x *Mat) *Mat {
	last := len(m.Layers) - 1
	head2 := m.Act == ActReLU && last >= 1 && m.Layers[last].W.W.C == 2
	for i, l := range m.Layers {
		out := ws.Take(x.R, l.W.W.C)
		if head2 && i == last {
			l.ApplyReLU2Rows(out.W, x)
			return out
		}
		l.ApplyInto(out, x)
		if i < last && !(head2 && i == last-1) {
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
			if !(v > 0) {
				x.W[i] = 0 // −0 and NaN too, as the tape's ReLU
			}
		}
	}
}

// AttKeys is the one inference form of the additive attention of
// Eqs. 6 and 9 over a key/value matrix that only ever grows by rows. The
// score w_v·tanh(W_q·q ⊕ W_k·k_i) splits into a query half and a key
// half, and each half is computed in one function: the key half here, in
// Grow (cached per key, so repeated read-outs skip the n×h key
// projection); the query half in Attention.QueryScoresInto; their sum and
// softmax in WeightsInto. Batch Eq. 6 (SelfApplyAllWS), stream Eq. 6
// (one cache per streaming session) and Eq. 9 (one cache per session,
// queried by every road) all read their weights from WeightsInto.
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
// new rows are projected, and each key's half w_v[h:]·tanh(W_k·k_i) is
// reduced. A key's score contribution depends on its own row alone, so
// growing row by row is bit-equal to PrecomputeKeys over the final
// matrix.
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

// ReadOutInto writes the read-out of one query, given its score half
// qdot, into out (length kv.C): the weights into w (WeightsInto, one
// entry per key), then Σ_i w_i·v_i, each element summed from +0 over the
// keys in order with zero weights skipped. That is term for term what
// MatMulInto makes of the weight row times kv, so a read-out is bit-equal
// to its row of SelfApplyAllWS over the same keys.
func (ak *AttKeys) ReadOutInto(out, w []float64, qdot float64) {
	ak.WeightsInto(w, qdot)
	clear(out)
	for i, wi := range w {
		axpy(out, wi, ak.kv.Row(i))
	}
}

// SelfApplyAllWS computes Eq. 6 over a whole trajectory: for every row
// of x, the read-out with x as queries, keys and values. It composes the
// AttKeys pieces — the key halves (PrecomputeKeys), the query halves in
// one product (QueryScoresInto), a weight row per query (WeightsInto) —
// and reads all n rows out in one n×n · n×d product. The returned n×d
// matrix is owned by ws.
func (a *Attention) SelfApplyAllWS(ws *Workspace, x *Mat) *Mat {
	ak := a.PrecomputeKeys(x)
	qdot := ws.TakeVec(x.R)
	a.QueryScoresInto(qdot, ws, x)
	w := ws.Take(x.R, x.R)
	for i, qd := range qdot {
		ak.WeightsInto(w.Row(i), qd)
	}
	out := ws.Take(x.R, x.C)
	MatMulInto(out, w, x)
	return out
}

// QueryAllWS reads out every row of queries (m×d) against the cached
// keys: the query halves in one product (QueryScoresInto), then
// ReadOutInto per row, so row r is bit-identical to the read-out of
// queries row r alone. The returned m×d matrix is owned by ws. No
// matcher path calls it; it is kept for the repository benchmark's
// nn.attkeys_us_per_row until that metric is re-pointed.
func (ak *AttKeys) QueryAllWS(ws *Workspace, queries *Mat) *Mat {
	qdot := ws.TakeVec(queries.R)
	ak.att.QueryScoresInto(qdot, ws, queries)
	w := ws.TakeVec(ak.kv.R)
	out := ws.Take(queries.R, ak.kv.C)
	for r, qd := range qdot {
		ak.ReadOutInto(out.Row(r), w, qd)
	}
	return out
}
