package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"

	"repro/internal/cellular"
	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// lhmm-session/v3 — the durable wire format for an in-flight streaming
// session. A snapshot captures everything needed to resume a learned
// streaming match bit-exactly on another process:
//
//	magic   "LHMMSESS" (8 bytes)
//	version u16 (3)
//	header  onBreak u8 · sanitize u8 · lag u32 · config fingerprint u64
//	        · weights hash [32]byte · id (u32 length + bytes, ≤256)
//	matcher n u32
//	        points    n × (tower i32, x f64, y f64, t f64)
//	        dead      n × u8
//	        emitted u32 · lastT f64 · degraded i64
//	        badCoords u32 · badTimes u32
//	        per point i: cᵢ u32, cᵢ candidates (seg i64, frac f64,
//	          projX f64, projY f64, dist f64, obs f64, pseudo u8),
//	          cᵢ × f64 forward scores, cᵢ × i32 backpointers
//	        matched   u32 count (== emitted) × candidate
//	        gaps      u32 count × (from i32, to i32, reason u8)
//	        window    rows u32 · cols u32 · rows×cols f64
//	session obsZ n × f64 · obsMax n × f64
//	footer  CRC-32C (Castagnoli) over everything before it, u32
//
// All integers and float bit patterns are little-endian. Floats are
// raw IEEE-754 bits, so restored Viterbi tables are bit-identical to
// the originals — the property that pins "restore then continue" to
// the uninterrupted output.
//
// The session section holds only the pool softmax terms of Eq. 7,
// which only a second scoring of every pool could recompute.
// Everything else a session holds is a deterministic function of the
// model and the points: restore rebuilds the embedding and context
// rows with the same extend every push runs, and the Eq. 9 key cache
// and Eq. 10 road-probability memo rebuild lazily on the first push.
// A snapshot is therefore closed under the model identity checks in
// the header (config fingerprint + weights hash) and carries no
// derived state that could drift.
//
// The matcher section carries what Algorithm 2 leaves in the table: a
// shortcut pseudo-candidate appended to a layer (pseudo = 1; a layer's
// own candidates come first) can outlive the push that adopted it, and
// the window is the step table into the last point, which the next
// push's shortcut window reads (0×0 when no window is open). Both come
// off the wire as they were: restore recomputes neither.
//
// A v1 file, which carried the derived rows, and a v2 file, which
// carried no pseudo flag and no window, are refused with
// ErrSnapshotVersion.

const (
	snapMagic = "LHMMSESS"
	// SnapshotVersion is the wire version written by EncodeStreamSnapshot.
	SnapshotVersion = 3
	// snapMaxID bounds the session ID length on the wire.
	snapMaxID = 256
	// snapMinLen is the smallest structurally possible snapshot:
	// magic+version+fixed header+empty sections+CRC.
	snapMinLen = 8 + 2 + (1 + 1 + 4 + 8 + 32 + 4) + (4 + 4 + 8 + 8 + 4 + 4 + 4 + 4 + 4 + 4) + 4
)

// Sentinel errors for snapshot triage: Corrupt means the bytes cannot
// be trusted (truncation, CRC, structural violations), Version means a
// wire version this build does not speak, Mismatch means a valid
// snapshot that belongs to a different model (config or weights).
// Recovery quarantines all three instead of crashing, but reports them
// distinctly.
var (
	ErrSnapshotCorrupt  = errors.New("snapshot corrupt")
	ErrSnapshotVersion  = errors.New("unsupported snapshot version")
	ErrSnapshotMismatch = errors.New("snapshot does not match model")
)

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

// WeightsHash digests every trainable parameter and calibration scalar
// (name, shape, and raw float bits, in AllParams order): the SHA-256 of
// the entry section Save writes (nn.WriteParamEntries). Two models with
// equal hashes score identically; the frozen embeddings are a
// deterministic function of the encoder parameters and the graph, so
// they are covered transitively.
func (m *Model) WeightsHash() [32]byte {
	h := sha256.New()
	nn.WriteParamEntries(h, m.AllParams()) // a hash.Hash never fails a Write
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// ConfigFingerprint digests the inference-relevant configuration plus
// the network/tower cardinalities: everything that must agree between
// the snapshotting and restoring model for a resumed session to score
// identically (training-only knobs like epochs and learning rate are
// excluded on purpose).
func (m *Model) ConfigFingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	put(uint64(m.Cfg.Dim))
	put(uint64(attDim(m.Cfg.Dim)))
	put(uint64(m.Cfg.K))
	put(math.Float64bits(poolRadius))
	put(uint64(m.Cfg.PoolSize))
	put(uint64(m.Cfg.CoPool))
	put(b2u(m.Cfg.DisableImplicitObs))
	put(b2u(m.Cfg.DisableImplicitTrans))
	put(uint64(m.Cfg.Shortcuts))
	put(uint64(m.Net.NumSegments()))
	put(uint64(m.Cells.NumTowers()))
	return h.Sum64()
}

// snapWriter appends little-endian primitives to a growing buffer.
type snapWriter struct{ b []byte }

func (w *snapWriter) bytes(p []byte) { w.b = append(w.b, p...) }
func (w *snapWriter) u8(v uint8)     { w.b = append(w.b, v) }
func (w *snapWriter) u16(v uint16)   { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *snapWriter) u32(v uint32)   { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *snapWriter) u64(v uint64)   { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *snapWriter) i32(v int32)    { w.u32(uint32(v)) }
func (w *snapWriter) i64(v int64)    { w.u64(uint64(v)) }
func (w *snapWriter) f64(v float64)  { w.u64(math.Float64bits(v)) }

func (w *snapWriter) f64s(vs []float64) {
	for _, v := range vs {
		w.f64(v)
	}
}

func (w *snapWriter) flag(b bool) {
	if b {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *snapWriter) candidate(c *hmm.Candidate) {
	w.i64(int64(c.Seg))
	w.f64(c.Frac)
	w.f64(c.Proj.X)
	w.f64(c.Proj.Y)
	w.f64(c.Dist)
	w.f64(c.Obs)
	w.flag(c.Pseudo)
}

const candWire = 8 + 5*8 + 1 // one candidate on the wire

// EncodeStreamSnapshot serializes a learned streaming session (a
// matcher produced by Model.NewStream, possibly resumed) to the
// lhmm-session/v3 format. weightsHash is the serving model's
// WeightsHash — passed in rather than recomputed because the caller
// checkpoints many sessions against one model.
//
// The encoder reads live matcher state through views; the caller must
// hold whatever lock serializes pushes to this session for the
// duration of the call.
func EncodeStreamSnapshot(sm *hmm.StreamMatcher, id string, weightsHash [32]byte) ([]byte, error) {
	ss, ok := sm.M.Obs.(*session)
	if !ok {
		return nil, fmt.Errorf("core: snapshot: matcher is not driven by a learned streaming session (obs model %T)", sm.M.Obs)
	}
	if len(id) == 0 || len(id) > snapMaxID {
		return nil, fmt.Errorf("core: snapshot: session id length %d out of range [1,%d]", len(id), snapMaxID)
	}
	st := sm.ExportState()
	n := len(st.Points)
	if ss.n != n {
		return nil, fmt.Errorf("core: snapshot: session absorbed %d points but matcher holds %d", ss.n, n)
	}
	cands := 0
	for i := range st.Layers {
		cands += len(st.Layers[i])
	}
	rows, cols := len(st.Steps), 0
	if rows > 0 {
		cols = len(st.Steps[0])
	}
	est := snapMinLen + len(id) + n*(4+3*8+1+4) + cands*(candWire+8+4) +
		len(st.Matched)*candWire + len(st.Gaps)*9 + rows*cols*8 + 2*n*8
	w := &snapWriter{b: make([]byte, 0, est)}

	w.bytes([]byte(snapMagic))
	w.u16(SnapshotVersion)
	w.u8(uint8(sm.M.Cfg.OnBreak))
	w.u8(uint8(sm.M.Cfg.Sanitize))
	w.u32(uint32(st.Lag))
	w.u64(ss.m.ConfigFingerprint())
	w.bytes(weightsHash[:])
	w.u32(uint32(len(id)))
	w.bytes([]byte(id))

	w.u32(uint32(n))
	for _, p := range st.Points {
		w.i32(int32(p.Tower))
		w.f64(p.P.X)
		w.f64(p.P.Y)
		w.f64(p.T)
	}
	for _, dead := range st.Dead {
		w.flag(dead)
	}
	w.u32(uint32(st.Emitted))
	w.f64(st.LastT)
	w.i64(st.Degraded)
	w.u32(uint32(st.Sanitize.BadCoords))
	w.u32(uint32(st.Sanitize.BadTimes))
	for i := 0; i < n; i++ {
		layer := st.Layers[i]
		w.u32(uint32(len(layer)))
		for j := range layer {
			w.candidate(&layer[j])
		}
		w.f64s(st.F[i])
		for _, p := range st.Pre[i] {
			w.i32(int32(p))
		}
	}
	w.u32(uint32(len(st.Matched)))
	for j := range st.Matched {
		w.candidate(&st.Matched[j])
	}
	w.u32(uint32(len(st.Gaps)))
	for _, g := range st.Gaps {
		w.i32(int32(g.From))
		w.i32(int32(g.To))
		w.u8(uint8(g.Reason))
	}
	w.u32(uint32(rows))
	w.u32(uint32(cols))
	for _, row := range st.Steps {
		w.f64s(row)
	}

	w.f64s(ss.obsZ)
	w.f64s(ss.obsMax)

	w.u32(crc32.Checksum(w.b, snapCRCTable))
	return w.b, nil
}

// snapReader consumes little-endian primitives with sticky, bounds-
// checked errors: any read past the end (or any structural violation
// flagged by the caller) records ErrSnapshotCorrupt once and turns all
// further reads into zero-valued no-ops. Decoding arbitrary bytes can
// therefore never panic — the property FuzzSnapshotDecode locks in.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s (offset %d)", ErrSnapshotCorrupt, fmt.Sprintf(format, args...), r.off)
	}
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) {
		r.fail("truncated: need %d bytes, %d left", n, len(r.b)-r.off)
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *snapReader) u8() uint8 {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *snapReader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *snapReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

func (r *snapReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

func (r *snapReader) i32() int32     { return int32(r.u32()) }
func (r *snapReader) i64() int64     { return int64(r.u64()) }
func (r *snapReader) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *snapReader) remaining() int { return len(r.b) - r.off }

// count reads a u32 element count and rejects values that could not
// possibly fit in the remaining bytes at minBytes per element, so a
// corrupt length cannot drive a giant allocation.
func (r *snapReader) count(what string, minBytes int) int {
	v := r.u32()
	if r.err != nil {
		return 0
	}
	if minBytes > 0 && int(v) > r.remaining()/minBytes {
		r.fail("%s count %d exceeds remaining payload", what, v)
		return 0
	}
	return int(v)
}

func (r *snapReader) f64s(n int) []float64 {
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = r.f64()
		if r.err != nil {
			return nil
		}
	}
	return out
}

// flag reads a u8 that must be 0 or 1.
func (r *snapReader) flag(what string) bool {
	switch v := r.u8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("%s flag %d is not 0/1", what, v)
		return false
	}
}

func (r *snapReader) candidate(c *hmm.Candidate) {
	c.Seg = roadnet.SegmentID(r.i64())
	c.Frac = r.f64()
	c.Proj.X = r.f64()
	c.Proj.Y = r.f64()
	c.Dist = r.f64()
	c.Obs = r.f64()
	c.Pseudo = r.flag("pseudo")
}

// snapHeader is the decoded fixed header.
type snapHeader struct {
	OnBreak     hmm.BreakPolicy
	Sanitize    traj.SanitizeMode
	Lag         int
	Fingerprint uint64
	WeightsHash [32]byte
	ID          string
}

// snapSession is the decoded learned-session block.
type snapSession struct {
	obsZ, obsMax []float64
}

// parseSnapshot validates framing (magic, CRC, version) and decodes
// every section with bounds checking. It is model-independent: all
// structural invariants are enforced here or by the hmm-level state
// validation, while model identity (fingerprint/weights) is the
// caller's concern.
func parseSnapshot(data []byte) (*snapHeader, *hmm.StreamState, *snapSession, error) {
	if len(data) < snapMinLen {
		return nil, nil, nil, fmt.Errorf("%w: %d bytes is below the minimum snapshot size %d", ErrSnapshotCorrupt, len(data), snapMinLen)
	}
	if string(data[:8]) != snapMagic {
		return nil, nil, nil, fmt.Errorf("%w: bad magic %q", ErrSnapshotCorrupt, data[:8])
	}
	body, foot := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(body, snapCRCTable), binary.LittleEndian.Uint32(foot); got != want {
		return nil, nil, nil, fmt.Errorf("%w: CRC %08x, footer says %08x", ErrSnapshotCorrupt, got, want)
	}
	r := &snapReader{b: body, off: 8}
	if v := r.u16(); v != SnapshotVersion {
		return nil, nil, nil, fmt.Errorf("%w: version %d (this build speaks %d)", ErrSnapshotVersion, v, SnapshotVersion)
	}

	var hdr snapHeader
	ob := r.u8()
	sz := r.u8()
	if r.err == nil && ob > uint8(hmm.BreakSplit) {
		r.fail("unknown break policy %d", ob)
	}
	if r.err == nil && sz > uint8(traj.SanitizeOff) {
		r.fail("unknown sanitize mode %d", sz)
	}
	hdr.OnBreak = hmm.BreakPolicy(ob)
	hdr.Sanitize = traj.SanitizeMode(sz)
	hdr.Lag = int(r.u32())
	hdr.Fingerprint = r.u64()
	copy(hdr.WeightsHash[:], r.take(32))
	idLen := r.count("session id", 1)
	if r.err == nil && (idLen == 0 || idLen > snapMaxID) {
		r.fail("session id length %d out of range [1,%d]", idLen, snapMaxID)
	}
	hdr.ID = string(r.take(idLen))

	st := &hmm.StreamState{Lag: hdr.Lag}
	n := r.count("point", 4+3*8)
	st.Points = make(traj.CellTrajectory, n)
	for i := range st.Points {
		p := &st.Points[i]
		p.Tower = cellular.TowerID(r.i32())
		p.P.X, p.P.Y, p.T = r.f64(), r.f64(), r.f64()
		if r.err != nil {
			return nil, nil, nil, r.err
		}
	}
	st.Dead = make([]bool, n)
	for i := range st.Dead {
		st.Dead[i] = r.flag("dead")
		if r.err != nil {
			return nil, nil, nil, r.err
		}
	}
	st.Emitted = int(r.u32())
	st.LastT = r.f64()
	st.Degraded = r.i64()
	st.Sanitize.BadCoords = int(r.u32())
	st.Sanitize.BadTimes = int(r.u32())

	st.Layers = make([][]hmm.Candidate, n)
	st.F = make([][]float64, n)
	st.Pre = make([][]int, n)
	for i := 0; i < n; i++ {
		c := r.count("candidate", candWire+8+4)
		if r.err != nil {
			return nil, nil, nil, r.err
		}
		if c == 0 {
			continue // dead point: nil rows
		}
		layer := make([]hmm.Candidate, c)
		for j := range layer {
			r.candidate(&layer[j])
		}
		st.Layers[i] = layer
		st.F[i] = r.f64s(c)
		pre := make([]int, c)
		for j := range pre {
			pre[j] = int(r.i32())
		}
		st.Pre[i] = pre
		if r.err != nil {
			return nil, nil, nil, r.err
		}
	}
	mc := r.count("matched", candWire)
	st.Matched = make([]hmm.Candidate, mc)
	for j := range st.Matched {
		r.candidate(&st.Matched[j])
		if r.err != nil {
			return nil, nil, nil, r.err
		}
	}
	gc := r.count("gap", 9)
	st.Gaps = make([]hmm.Gap, gc)
	for j := range st.Gaps {
		st.Gaps[j].From = int(r.i32())
		st.Gaps[j].To = int(r.i32())
		st.Gaps[j].Reason = hmm.GapReason(r.u8())
		if r.err != nil {
			return nil, nil, nil, r.err
		}
	}
	rows := r.count("window row", 0)
	cols := r.count("window column", 0)
	if r.err == nil && rows > 0 && cols > r.remaining()/8/rows {
		r.fail("window %d×%d exceeds remaining payload", rows, cols)
	}
	if r.err == nil && (rows == 0) != (cols == 0) {
		r.fail("window %d×%d", rows, cols)
	}
	if rows > 0 && r.err == nil {
		st.Steps = make([][]float64, rows)
		for j := range st.Steps {
			st.Steps[j] = r.f64s(cols)
		}
	}

	sess := &snapSession{}
	sess.obsZ = r.f64s(n)
	sess.obsMax = r.f64s(n)
	if r.err != nil {
		return nil, nil, nil, r.err
	}
	if r.remaining() != 0 {
		r.fail("%d trailing bytes after session section", r.remaining())
		return nil, nil, nil, r.err
	}
	return &hdr, st, sess, nil
}

// StreamSnapshot is a restored streaming session: the matcher resumes
// exactly where the snapshotted one stopped.
type StreamSnapshot struct {
	ID  string
	Lag int
	SM  *hmm.StreamMatcher
}

// DecodeStreamSnapshot restores an lhmm-session/v3 snapshot against m.
// weightsHash is the caller's cached m.WeightsHash(). The error is
// ErrSnapshotCorrupt, ErrSnapshotVersion, or ErrSnapshotMismatch
// (errors.Is) — the recovery path quarantines on any of them.
//
// The restored matcher's OnBreak/Sanitize policies come from the
// snapshot header (they are per-session serving overrides), while
// scoring configuration comes from m, pinned equal by the fingerprint.
func DecodeStreamSnapshot(m *Model, weightsHash [32]byte, data []byte) (*StreamSnapshot, error) {
	if m.emb == nil {
		return nil, fmt.Errorf("core: snapshot: model has no embeddings; call RefreshEmbeddings or Load first")
	}
	hdr, st, sess, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	if fp := m.ConfigFingerprint(); hdr.Fingerprint != fp {
		return nil, fmt.Errorf("%w: config fingerprint %016x, model has %016x", ErrSnapshotMismatch, hdr.Fingerprint, fp)
	}
	if hdr.WeightsHash != weightsHash {
		return nil, fmt.Errorf("%w: weights hash %s, model has %s", ErrSnapshotMismatch,
			hex.EncodeToString(hdr.WeightsHash[:8]), hex.EncodeToString(weightsHash[:8]))
	}
	nSeg, nTow := m.Net.NumSegments(), m.Cells.NumTowers()
	for i := range st.Points {
		if t := int(st.Points[i].Tower); t < 0 || t >= nTow {
			return nil, fmt.Errorf("%w: point %d tower %d out of range [0,%d)", ErrSnapshotCorrupt, i, t, nTow)
		}
	}
	checkSeg := func(what string, i int, c *hmm.Candidate) error {
		if s := int(c.Seg); s < 0 || s >= nSeg {
			return fmt.Errorf("%w: %s %d: segment %d out of range [0,%d)", ErrSnapshotCorrupt, what, i, s, nSeg)
		}
		return nil
	}
	for i := range st.Layers {
		for j := range st.Layers[i] {
			if err := checkSeg("candidate of point", i, &st.Layers[i][j]); err != nil {
				return nil, err
			}
		}
	}
	for j := range st.Matched {
		if err := checkSeg("matched entry", j, &st.Matched[j]); err != nil {
			return nil, err
		}
	}

	ss := &session{m: m}
	sm, err := hmm.NewStreamMatcherFromState(m.streamMatcher(ss, hdr.OnBreak, hdr.Sanitize), st)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	// The session's rows are rebuilt by the push path itself, over the
	// range-checked towers (towerEmb indexes by them); only the pool
	// softmax terms come off the wire.
	ss.extend(st.Points)
	copy(ss.obsZ, sess.obsZ)
	copy(ss.obsMax, sess.obsMax)
	return &StreamSnapshot{ID: hdr.ID, Lag: hdr.Lag, SM: sm}, nil
}

// SnapshotInfo is a model-independent summary of a snapshot file, for
// `lhmm sessions inspect`.
type SnapshotInfo struct {
	Version     int     `json:"version"`
	ID          string  `json:"id"`
	Lag         int     `json:"lag"`
	OnBreak     string  `json:"on_break"`
	Sanitize    string  `json:"sanitize"`
	Points      int     `json:"points"`
	Emitted     int     `json:"emitted"`
	Pending     int     `json:"pending"`
	DeadPoints  int     `json:"dead_points"`
	Gaps        int     `json:"gaps"`
	Degraded    int64   `json:"degraded"`
	BadCoords   int     `json:"sanitize_bad_coords"`
	BadTimes    int     `json:"sanitize_bad_times"`
	LastT       float64 `json:"last_t"`
	Fingerprint string  `json:"config_fingerprint"`
	WeightsHash string  `json:"weights_hash"`
	Bytes       int     `json:"bytes"`
}

// InspectStreamSnapshot decodes a snapshot's framing and state without
// a model: full structural validation (CRC, bounds, hmm invariants)
// but no identity check. Safe on arbitrary bytes.
func InspectStreamSnapshot(data []byte) (*SnapshotInfo, error) {
	hdr, st, _, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	// Run the hmm-level validation too, so inspect flags the same
	// states restore would reject (a throwaway matcher shell suffices
	// — validation is structural).
	if _, err := hmm.NewStreamMatcherFromState(&hmm.Matcher{}, st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	dead := 0
	for _, d := range st.Dead {
		if d {
			dead++
		}
	}
	return &SnapshotInfo{
		Version:     SnapshotVersion,
		ID:          hdr.ID,
		Lag:         hdr.Lag,
		OnBreak:     hdr.OnBreak.String(),
		Sanitize:    hdr.Sanitize.String(),
		Points:      len(st.Points),
		Emitted:     st.Emitted,
		Pending:     len(st.Points) - st.Emitted,
		DeadPoints:  dead,
		Gaps:        len(st.Gaps),
		Degraded:    st.Degraded,
		BadCoords:   st.Sanitize.BadCoords,
		BadTimes:    st.Sanitize.BadTimes,
		LastT:       st.LastT,
		Fingerprint: fmt.Sprintf("%016x", hdr.Fingerprint),
		WeightsHash: hex.EncodeToString(hdr.WeightsHash[:]),
		Bytes:       len(data),
	}, nil
}
