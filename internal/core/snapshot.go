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
	"repro/internal/wire"
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

// WeightsHash digests everything matching reads of the weights: the
// SHA-256 of the entry section of the model file, the frozen node rows
// then every other parameter and calibration scalar (name, shape and raw
// float bits, in Save's order). A trained model digests what Save would
// write (before the first RefreshEmbeddings, without the node rows); a
// loaded model returns the digest of the section it was decoded from.
// Two models with equal hashes score identically.
func (m *Model) WeightsHash() [32]byte {
	if m.Enc == nil {
		return m.weightsHash
	}
	h := sha256.New()
	nn.WriteParamEntries(h, m.fileParams(m.nodes)) // a hash.Hash never fails a Write
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

// putCandidate writes one candidate in its candWire bytes.
func putCandidate(w *wire.Writer, c *hmm.Candidate) {
	w.U64(uint64(c.Seg))
	w.F64(c.Frac)
	w.F64(c.Proj.X)
	w.F64(c.Proj.Y)
	w.F64(c.Dist)
	w.F64(c.Obs)
	w.Bool(c.Pseudo)
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
	w := wire.Writer{Buf: make([]byte, 0, est)}

	w.Bytes([]byte(snapMagic))
	w.U16(SnapshotVersion)
	w.U8(uint8(sm.M.Cfg.OnBreak))
	w.U8(uint8(sm.M.Cfg.Sanitize))
	w.U32(uint32(st.Lag))
	w.U64(ss.m.ConfigFingerprint())
	w.Bytes(weightsHash[:])
	w.U32(uint32(len(id)))
	w.Bytes([]byte(id))

	w.U32(uint32(n))
	for _, p := range st.Points {
		w.U32(uint32(p.Tower))
		w.F64(p.P.X)
		w.F64(p.P.Y)
		w.F64(p.T)
	}
	for _, dead := range st.Dead {
		w.Bool(dead)
	}
	w.U32(uint32(st.Emitted))
	w.F64(st.LastT)
	w.U64(uint64(st.Degraded))
	w.U32(uint32(st.Sanitize.BadCoords))
	w.U32(uint32(st.Sanitize.BadTimes))
	for i := 0; i < n; i++ {
		layer := st.Layers[i]
		w.U32(uint32(len(layer)))
		for j := range layer {
			putCandidate(&w, &layer[j])
		}
		w.F64s(st.F[i])
		for _, p := range st.Pre[i] {
			w.U32(uint32(p))
		}
	}
	w.U32(uint32(len(st.Matched)))
	for j := range st.Matched {
		putCandidate(&w, &st.Matched[j])
	}
	w.U32(uint32(len(st.Gaps)))
	for _, g := range st.Gaps {
		w.U32(uint32(g.From))
		w.U32(uint32(g.To))
		w.U8(uint8(g.Reason))
	}
	w.U32(uint32(rows))
	w.U32(uint32(cols))
	for _, row := range st.Steps {
		w.F64s(row)
	}

	w.F64s(ss.obsZ)
	w.F64s(ss.obsMax)
	return w.Seal(snapCRCTable), nil
}

// getCandidate reads one candidate as putCandidate wrote it.
func getCandidate(r *wire.Reader, c *hmm.Candidate) {
	c.Seg = roadnet.SegmentID(int64(r.U64()))
	c.Frac = r.F64()
	c.Proj.X = r.F64()
	c.Proj.Y = r.F64()
	c.Dist = r.F64()
	c.Obs = r.F64()
	c.Pseudo = r.Bool()
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
	body, err := wire.Open(data, snapCRCTable)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	r := wire.NewReader(body)
	r.Bytes(len(snapMagic))
	if v := r.U16(); v != SnapshotVersion {
		return nil, nil, nil, fmt.Errorf("%w: version %d (this build speaks %d)", ErrSnapshotVersion, v, SnapshotVersion)
	}
	// count reads a u32 element count the remaining bytes can hold at
	// size bytes per element, so a corrupt length cannot drive a giant
	// allocation.
	count := func(size int) int {
		if v := r.U32(); r.Fits(uint64(v), size) {
			return int(v)
		}
		return 0
	}

	var hdr snapHeader
	ob := r.U8()
	sz := r.U8()
	if ob > uint8(hmm.BreakSplit) {
		r.Failf("unknown break policy %d", ob)
	}
	if sz > uint8(traj.SanitizeOff) {
		r.Failf("unknown sanitize mode %d", sz)
	}
	hdr.OnBreak = hmm.BreakPolicy(ob)
	hdr.Sanitize = traj.SanitizeMode(sz)
	hdr.Lag = int(r.U32())
	hdr.Fingerprint = r.U64()
	copy(hdr.WeightsHash[:], r.Bytes(32))
	idLen := count(1)
	if r.Err() == nil && (idLen == 0 || idLen > snapMaxID) {
		r.Failf("session id length %d out of range [1,%d]", idLen, snapMaxID)
	}
	hdr.ID = string(r.Bytes(idLen))

	st := &hmm.StreamState{Lag: hdr.Lag}
	n := count(4 + 3*8)
	st.Points = make(traj.CellTrajectory, n)
	for i := range st.Points {
		p := &st.Points[i]
		p.Tower = cellular.TowerID(int32(r.U32()))
		p.P.X, p.P.Y, p.T = r.F64(), r.F64(), r.F64()
	}
	st.Dead = make([]bool, n)
	for i := range st.Dead {
		st.Dead[i] = r.Bool()
	}
	st.Emitted = int(r.U32())
	st.LastT = r.F64()
	st.Degraded = int64(r.U64())
	st.Sanitize.BadCoords = int(r.U32())
	st.Sanitize.BadTimes = int(r.U32())

	st.Layers = make([][]hmm.Candidate, n)
	st.F = make([][]float64, n)
	st.Pre = make([][]int, n)
	for i := 0; i < n; i++ {
		c := count(candWire + 8 + 4)
		if c == 0 {
			continue // dead point: nil rows
		}
		layer := make([]hmm.Candidate, c)
		for j := range layer {
			getCandidate(r, &layer[j])
		}
		st.Layers[i] = layer
		st.F[i] = r.F64s(c)
		pre := make([]int, c)
		for j := range pre {
			pre[j] = int(int32(r.U32()))
		}
		st.Pre[i] = pre
	}
	st.Matched = make([]hmm.Candidate, count(candWire))
	for j := range st.Matched {
		getCandidate(r, &st.Matched[j])
	}
	st.Gaps = make([]hmm.Gap, count(4+4+1))
	for j := range st.Gaps {
		st.Gaps[j].From = int(int32(r.U32()))
		st.Gaps[j].To = int(int32(r.U32()))
		st.Gaps[j].Reason = hmm.GapReason(r.U8())
	}
	rows, cols := r.U32(), r.U32()
	if (rows == 0) != (cols == 0) {
		r.Failf("window %d×%d", rows, cols)
	}
	if r.Fits(uint64(rows)*uint64(cols), 8) && rows > 0 {
		st.Steps = make([][]float64, rows)
		for j := range st.Steps {
			st.Steps[j] = r.F64s(int(cols))
		}
	}

	sess := &snapSession{}
	sess.obsZ = r.F64s(n)
	sess.obsMax = r.F64s(n)
	if r.Len() != 0 {
		r.Failf("%d trailing bytes after session section", r.Len())
	}
	if err := r.Err(); err != nil {
		return nil, nil, nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
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
