package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/hmm"
	"repro/internal/nn"
)

// streamRun is everything observable about a finished streaming match,
// collected push by push so restore fidelity can be pinned at emission
// granularity, not just on the final state.
type streamRun struct {
	emitted []hmm.Candidate
	state   *hmm.StreamState
	path    []int
}

func finishRun(sm *hmm.StreamMatcher, emitted []hmm.Candidate) streamRun {
	emitted = append(emitted, sm.Flush()...)
	var path []int
	for _, s := range sm.Path() {
		path = append(path, int(s))
	}
	return streamRun{emitted: emitted, state: sm.ExportState(), path: path}
}

// sameCandidates compares candidate slices with float bit equality —
// "close enough" is not the contract, bit-identical is.
func sameCandidates(t *testing.T, what string, a, b []hmm.Candidate) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d entries", what, len(a), len(b))
	}
	for i := range a {
		if a[i].Seg != b[i].Seg || a[i].Frac != b[i].Frac || a[i].Proj != b[i].Proj ||
			a[i].Dist != b[i].Dist || a[i].Pseudo != b[i].Pseudo ||
			math.Float64bits(a[i].Obs) != math.Float64bits(b[i].Obs) {
			t.Fatalf("%s: entry %d differs: %+v vs %+v", what, i, a[i], b[i])
		}
	}
}

func sameRun(t *testing.T, base, got streamRun) {
	t.Helper()
	sameCandidates(t, "emitted", base.emitted, got.emitted)
	sameCandidates(t, "matched", base.state.Matched, got.state.Matched)
	if len(base.path) != len(got.path) {
		t.Fatalf("path length %d vs %d", len(got.path), len(base.path))
	}
	for i := range base.path {
		if base.path[i] != got.path[i] {
			t.Fatalf("paths diverge at %d: %d vs %d", i, got.path[i], base.path[i])
		}
	}
	if len(base.state.Gaps) != len(got.state.Gaps) {
		t.Fatalf("gaps %d vs %d", len(got.state.Gaps), len(base.state.Gaps))
	}
	for i := range base.state.Gaps {
		if base.state.Gaps[i] != got.state.Gaps[i] {
			t.Fatalf("gap %d differs: %+v vs %+v", i, got.state.Gaps[i], base.state.Gaps[i])
		}
	}
	for i := range base.state.Dead {
		if base.state.Dead[i] != got.state.Dead[i] {
			t.Fatalf("dead flag %d differs", i)
		}
	}
	if base.state.Degraded != got.state.Degraded {
		t.Fatalf("degraded %d vs %d", got.state.Degraded, base.state.Degraded)
	}
	// The full Viterbi tables, bit for bit: the first half restored
	// from the snapshot, the second half recomputed on top of it.
	for i := range base.state.F {
		if len(base.state.F[i]) != len(got.state.F[i]) {
			t.Fatalf("point %d: %d vs %d forward scores", i, len(got.state.F[i]), len(base.state.F[i]))
		}
		for j := range base.state.F[i] {
			if math.Float64bits(base.state.F[i][j]) != math.Float64bits(got.state.F[i][j]) {
				t.Fatalf("forward score (%d,%d) differs: %v vs %v", i, j, got.state.F[i][j], base.state.F[i][j])
			}
		}
	}
}

// The tentpole property: checkpoint mid-stream, restore, push the
// rest — every emission, the full Viterbi table, gaps, dead points,
// degraded counters, and the expanded path are bit-identical to an
// uninterrupted run. Run twice: a clean trip, and a trip with fault-
// injected dead points under the split policy so the gap/stitch state
// round-trips too.
func TestSnapshotRestoreFidelity(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	wh := m.WeightsHash()
	tr := d.TestTrips()[0]
	if len(tr.Cell) < 6 {
		t.Skip("trip too short")
	}
	lag := 2
	half := len(tr.Cell) / 2

	for _, tc := range []struct {
		name  string
		fault string
	}{
		{"clean", ""},
		{"deadpoints", "hmm.candidates.empty:4"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fault != "" {
				m.Cfg.OnBreak = hmm.BreakSplit
				defer func() { m.Cfg.OnBreak = hmm.BreakError }()
			}
			// arm resets all failpoint hit counters so the Nth-hit
			// positions align between the baseline and interrupted runs.
			arm := func() {
				faultinject.DisarmAll()
				if tc.fault != "" {
					if err := faultinject.Arm(tc.fault); err != nil {
						t.Fatal(err)
					}
				}
			}
			defer faultinject.DisarmAll()

			arm()
			sm := m.NewStream(lag)
			var baseEmitted []hmm.Candidate
			for _, p := range tr.Cell {
				out, err := sm.Push(p)
				if err != nil {
					t.Fatal(err)
				}
				baseEmitted = append(baseEmitted, out...)
			}
			baseline := finishRun(sm, baseEmitted)
			if tc.fault != "" {
				dead := 0
				for _, d := range baseline.state.Dead {
					if d {
						dead++
					}
				}
				if dead == 0 {
					t.Fatal("fault injection produced no dead points; the subtest pins nothing")
				}
			}

			arm()
			sm = m.NewStream(lag)
			var emitted []hmm.Candidate
			for _, p := range tr.Cell[:half] {
				out, err := sm.Push(p)
				if err != nil {
					t.Fatal(err)
				}
				emitted = append(emitted, out...)
			}
			data, err := EncodeStreamSnapshot(sm, "fidelity-1", wh)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := DecodeStreamSnapshot(m, wh, data)
			if err != nil {
				t.Fatal(err)
			}
			if snap.ID != "fidelity-1" || snap.Lag != lag {
				t.Fatalf("restored (id=%q, lag=%d), want (fidelity-1, %d)", snap.ID, snap.Lag, lag)
			}
			for _, p := range tr.Cell[half:] {
				out, err := snap.SM.Push(p)
				if err != nil {
					t.Fatal(err)
				}
				emitted = append(emitted, out...)
			}
			sameRun(t, baseline, finishRun(snap.SM, emitted))
		})
	}
}

// A push that fails with ErrNoCandidates (a dead point under the
// default BreakError policy) leaves a session that still encodes, and
// whose snapshot, taken right after the failure, restores and continues
// bit-identically to the session that was never interrupted.
func TestSnapshotAfterFailedPush(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	wh := m.WeightsHash()
	tr := d.TestTrips()[0]
	if len(tr.Cell) < 5 {
		t.Skip("trip too short")
	}
	defer faultinject.DisarmAll()
	// run streams the trip with every third candidate call empty (points
	// 2, 5, …), round-tripping the session through a snapshot before
	// point snapAt (never when snapAt < 0).
	run := func(snapAt int) streamRun {
		faultinject.DisarmAll()
		if err := faultinject.Arm("hmm.candidates.empty:3"); err != nil {
			t.Fatal(err)
		}
		sm := m.NewStream(2)
		var emitted []hmm.Candidate
		for i, p := range tr.Cell {
			if i == snapAt {
				data, err := EncodeStreamSnapshot(sm, "failed-push", wh)
				if err != nil {
					t.Fatal(err)
				}
				snap, err := DecodeStreamSnapshot(m, wh, data)
				if err != nil {
					t.Fatal(err)
				}
				sm = snap.SM
			}
			out, err := sm.Push(p)
			if dead := i%3 == 2; dead != errors.Is(err, hmm.ErrNoCandidates) || !dead && err != nil {
				t.Fatalf("push %d: err = %v", i, err)
			}
			emitted = append(emitted, out...)
		}
		return finishRun(sm, emitted)
	}
	base := run(-1)
	if !base.state.Dead[2] {
		t.Fatal("point 2 is not dead after its failed push")
	}
	sameRun(t, base, run(3))
}

// TestSnapshotRestoreWithShortcuts: a learned stream whose shortcut
// windows adopt — two candidates per point, so Algorithm 2 often finds a
// road the layer lacks — checkpointed and restored after every push at
// lags 1 and 2 runs bit for bit as the uninterrupted stream: emissions
// with their pseudo flags, Skipped, every layer's pseudo-candidates and
// the whole table.
func TestSnapshotRestoreWithShortcuts(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	m.Cfg.K = 2
	wh := m.WeightsHash()
	for _, lag := range []int{1, 2} {
		for k, tr := range d.TestTrips() {
			run := func(restore bool) (streamRun, []bool) {
				sm := m.NewStream(lag)
				var emitted []hmm.Candidate
				for _, p := range tr.Cell {
					out, err := sm.Push(p)
					if err != nil {
						t.Fatal(err)
					}
					emitted = append(emitted, out...)
					if restore {
						data, err := EncodeStreamSnapshot(sm, "shortcuts", wh)
						if err != nil {
							t.Fatal(err)
						}
						snap, err := DecodeStreamSnapshot(m, wh, data)
						if err != nil {
							t.Fatal(err)
						}
						sm = snap.SM
					}
				}
				r := finishRun(sm, emitted)
				return r, sm.Skipped()
			}
			base, baseSkipped := run(false)
			got, gotSkipped := run(true)
			sameRun(t, base, got)
			if !slices.Equal(baseSkipped, gotSkipped) {
				t.Fatalf("lag %d trip %d: Skipped %v restored, %v uninterrupted", lag, k, gotSkipped, baseSkipped)
			}
			for i := range base.state.Layers {
				sameCandidates(t, fmt.Sprintf("lag %d trip %d layer %d", lag, k, i), base.state.Layers[i], got.state.Layers[i])
			}
			if k == 0 && !slices.Contains(baseSkipped, true) {
				t.Fatalf("lag %d: the first trip matches no point to a pseudo-candidate; the test pins no adoption", lag)
			}
		}
	}
}

// A snapshot can be taken and restored at any point, including before
// anything was pushed and after the last point.
func TestSnapshotAtBoundaries(t *testing.T) {
	d := testDataset(t, 10)
	m := streamModel(t, d)
	wh := m.WeightsHash()
	tr := d.TestTrips()[0]

	// Empty session round-trip.
	sm := m.NewStream(1)
	data, err := EncodeStreamSnapshot(sm, "empty", wh)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := DecodeStreamSnapshot(m, wh, data)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []hmm.Candidate
	for _, p := range tr.Cell {
		out, err := snap.SM.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		emitted = append(emitted, out...)
	}
	emitted = append(emitted, snap.SM.Flush()...)
	if len(emitted) != len(tr.Cell) {
		t.Fatalf("restored-empty stream emitted %d of %d points", len(emitted), len(tr.Cell))
	}

	// All-points-pushed round-trip: restore then flush only.
	sm = m.NewStream(2)
	want := 0
	for _, p := range tr.Cell {
		out, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		want += len(out)
	}
	data, err = EncodeStreamSnapshot(sm, "full", wh)
	if err != nil {
		t.Fatal(err)
	}
	snap, err = DecodeStreamSnapshot(m, wh, data)
	if err != nil {
		t.Fatal(err)
	}
	rest := snap.SM.Flush()
	if want+len(rest) != len(tr.Cell) {
		t.Fatalf("restored-full stream finalized %d of %d points", want+len(rest), len(tr.Cell))
	}
}

// TestSnapshotRestoreRebuildsSessionRows pins that a restored session's
// rows, which the snapshot no longer carries, are rebuilt bit for bit:
// extend is the one way a stream session is filled, whether by pushes or
// by restore. Every test trip of four datasets at two dims is restored
// from its end-of-trip snapshot, and one trip after every push.
func TestSnapshotRestoreRebuildsSessionRows(t *testing.T) {
	sameBits := func(t *testing.T, what string, live, got []float64) {
		t.Helper()
		if len(live) != len(got) {
			t.Fatalf("%s: %d values restored, live session holds %d", what, len(got), len(live))
		}
		for i := range live {
			if math.Float64bits(live[i]) != math.Float64bits(got[i]) {
				t.Fatalf("%s[%d]: restored %v, live %v", what, i, got[i], live[i])
			}
		}
	}
	check := func(t *testing.T, m *Model, wh [32]byte, sm *hmm.StreamMatcher) {
		t.Helper()
		data, err := EncodeStreamSnapshot(sm, "rows", wh)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeStreamSnapshot(m, wh, data)
		if err != nil {
			t.Fatal(err)
		}
		live, got := sm.M.Obs.(*session), snap.SM.M.Obs.(*session)
		sameBits(t, "embW", live.embW, got.embW)
		sameBits(t, "ctxW", live.ctxW, got.ctxW)
		sameBits(t, "obsCtx", live.obsCtx, got.obsCtx)
		sameBits(t, "obsZ", live.obsZ, got.obsZ)
		sameBits(t, "obsMax", live.obsMax, got.obsMax)
	}
	for _, trips := range []int{10, 12, 14, 20} {
		d := testDataset(t, trips)
		for _, dim := range []int{16, 128} {
			t.Run(fmt.Sprintf("trips%d/dim%d", trips, dim), func(t *testing.T) {
				cfg := fastConfig()
				cfg.Dim = dim
				m, err := New(d, d.TrainTrips(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				m.RefreshEmbeddings()
				wh := m.WeightsHash()
				for k, tr := range d.TestTrips() {
					sm := m.NewStream(2)
					for _, p := range tr.Cell {
						sm.Push(p) //nolint:errcheck // a failed push still snapshots (TestSnapshotAfterFailedPush)
						if k == 0 {
							check(t, m, wh, sm)
						}
					}
					check(t, m, wh, sm)
				}
			})
		}
	}
}

func snapshotFixture(t testing.TB) (*Model, [32]byte, []byte) {
	t.Helper()
	d := testDataset(t, 10)
	m := streamModel(t, d)
	wh := m.WeightsHash()
	tr := d.TestTrips()[0]
	sm := m.NewStream(2)
	for _, p := range tr.Cell {
		if _, err := sm.Push(p); err != nil {
			t.Fatal(err)
		}
	}
	data, err := EncodeStreamSnapshot(sm, "fixture", wh)
	if err != nil {
		t.Fatal(err)
	}
	return m, wh, data
}

// TestSnapshotWireStable pins the lhmm-session/v3 bytes: the fixture's
// encoded length equals the size of the field list in the format
// comment (snapshot.go), and — on amd64, float bits being
// architecture-dependent — its digest is the recorded one. The digest
// was re-recorded three times: once (acda2a48… before) when factoring
// Eq. 10's first layer (session.roadProbRows) re-associated one sum and
// moved the Viterbi f scores in the last ulp, once (aa4872b9… before)
// for v2, which drops the dim and the embedding and context rows from
// the session section and bumps the version, once (e68f790a… before)
// for v3, which adds a pseudo flag to every candidate, the open
// shortcut window's step table and Shortcuts to the config fingerprint,
// and once (54ecfd31… before) when WeightsHash began digesting the
// lhmm-weights/v2 entry section (node rows in place of the encoder):
// the two encodings differ only in the header's 32 weights-hash bytes
// and the CRC footer over them.
func TestSnapshotWireStable(t *testing.T) {
	m, wh, data := snapshotFixture(t)
	snap, err := DecodeStreamSnapshot(m, wh, data)
	if err != nil {
		t.Fatal(err)
	}
	st := snap.SM.ExportState()
	if len(st.Steps) == 0 {
		t.Fatal("the fixture has no open shortcut window")
	}
	n := len(st.Points)
	const cand = 8 + 5*8 + 1                         // seg i64 + frac, projX, projY, dist, obs f64 + pseudo u8
	want := 8 + 2                                    // magic, version
	want += 1 + 1 + 4 + 8 + 32 + 4 + len(snap.ID)    // header
	want += 4 + n*(4+3*8) + n                        // n, points, dead
	want += 4 + 8 + 8 + 4 + 4                        // emitted, lastT, degraded, badCoords, badTimes
	want += 4 + len(st.Matched)*cand                 // matched
	want += 4 + len(st.Gaps)*(4+4+1)                 // gaps
	want += 4 + 4 + len(st.Steps)*len(st.Steps[0])*8 // window
	want += 2 * n * 8                                // obsZ, obsMax
	want += 4                                        // CRC
	for _, layer := range st.Layers {
		want += 4 + len(layer)*(cand+8+4) // count, candidates, f, pre
	}
	if len(data) != want {
		t.Errorf("fixture snapshot is %d bytes, the format's field list adds up to %d", len(data), want)
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64")
	}
	const golden = "0dfbec3c3646fff904d967cb34303a4fd0cef01600221b300e8916519efe284f"
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Errorf("fixture snapshot sha-256 %s, want %s (%d bytes)", got, golden, len(data))
	}
}

// TestTrainWeightsGolden pins the digest of every trained parameter of
// a tiny Train run (AllParams, the encoder's included, through
// nn.WriteParamEntries) — on amd64, like TestSnapshotWireStable — to the
// value recorded before the encoder backward went row-sparse and
// matMulRows register-blocked. Kernel work must leave training's
// arithmetic bit for bit where it was; this fails loudly if it moves.
// Its WeightsHash, the digest of the lhmm-weights/v2 entry section
// (node rows in place of the encoder, so the `lhmm train` model file),
// is pinned beside it.
func TestTrainWeightsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64")
	}
	m, err := Train(testDataset(t, 14), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := nn.WriteParamEntries(h, m.AllParams()); err != nil {
		t.Fatal(err)
	}
	const golden = "3828b1fb2e48e6128a8a3d9f8e75d2379929654502cea5bdcd5fd9223a0df08c"
	if sum := h.Sum(nil); hex.EncodeToString(sum) != golden {
		t.Fatalf("trained parameters digest %x, want %s", sum, golden)
	}
	const goldenV2 = "bc363a200b2fabbe4ae661c0c1d89832e6b41a1bec1e23babe4628aaaf9f3ff2"
	if wh := m.WeightsHash(); hex.EncodeToString(wh[:]) != goldenV2 {
		t.Fatalf("trained WeightsHash %x, want %s", wh, goldenV2)
	}
}

// refit recomputes the CRC footer after a deliberate body mutation, so
// the test reaches the check behind the CRC gate.
func refit(data []byte) []byte {
	out := append([]byte(nil), data...)
	crc := crc32.Checksum(out[:len(out)-4], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(out[len(out)-4:], crc)
	return out
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	m, wh, data := snapshotFixture(t)

	if _, err := DecodeStreamSnapshot(m, wh, data[:len(data)/2]); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("truncated snapshot: %v, want ErrSnapshotCorrupt", err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0xFF
	if _, err := DecodeStreamSnapshot(m, wh, flipped); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("bit-flipped snapshot: %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := DecodeStreamSnapshot(m, wh, []byte("LHMMSESS")); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("header-only snapshot: %v, want ErrSnapshotCorrupt", err)
	}
	if _, err := DecodeStreamSnapshot(m, wh, nil); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("nil snapshot: %v, want ErrSnapshotCorrupt", err)
	}
}

// withVersion returns data with its wire version set to v and the CRC
// refitted, so the version check is what rejects it.
func withVersion(data []byte, v uint16) []byte {
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(out[8:], v)
	return refit(out)
}

// Every other version is refused: a newer file, a v1 file, whose
// derived session rows this build no longer reads, and a v2 file, which
// carries no pseudo flag and no open shortcut window.
func TestSnapshotRejectsVersionSkew(t *testing.T) {
	m, wh, data := snapshotFixture(t)
	for _, v := range []uint16{1, 2, SnapshotVersion + 1} {
		skewed := withVersion(data, v)
		if _, err := DecodeStreamSnapshot(m, wh, skewed); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("version-%d snapshot: %v, want ErrSnapshotVersion", v, err)
		}
		if _, err := InspectStreamSnapshot(skewed); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("inspect version-%d: %v, want ErrSnapshotVersion", v, err)
		}
	}
}

func TestSnapshotRejectsModelMismatch(t *testing.T) {
	m, wh, data := snapshotFixture(t)

	// Wrong weights: same config, different hash.
	var otherWH [32]byte
	otherWH[0] = 1
	if _, err := DecodeStreamSnapshot(m, otherWH, data); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("weights mismatch: %v, want ErrSnapshotMismatch", err)
	}

	// Wrong config: the fingerprint covers K.
	origK := m.Cfg.K
	m.Cfg.K = origK + 3
	_, err := DecodeStreamSnapshot(m, wh, data)
	m.Cfg.K = origK
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("config mismatch: %v, want ErrSnapshotMismatch", err)
	}
}

func TestSnapshotEncodeValidatesID(t *testing.T) {
	d := testDataset(t, 6)
	m := streamModel(t, d)
	sm := m.NewStream(1)
	if _, err := EncodeStreamSnapshot(sm, "", [32]byte{}); err == nil {
		t.Fatal("empty session id accepted")
	}
	long := make([]byte, snapMaxID+1)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := EncodeStreamSnapshot(sm, string(long), [32]byte{}); err == nil {
		t.Fatal("oversized session id accepted")
	}
	// The shortest id on an empty session is the smallest snapshot.
	data, err := EncodeStreamSnapshot(sm, "x", [32]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != snapMinLen+1 {
		t.Fatalf("smallest snapshot is %d bytes, snapMinLen+1 is %d", len(data), snapMinLen+1)
	}
	if _, err := InspectStreamSnapshot(data); err != nil {
		t.Fatalf("smallest snapshot: %v", err)
	}
}

func TestInspectStreamSnapshot(t *testing.T) {
	_, _, data := snapshotFixture(t)
	info, err := InspectStreamSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "fixture" || info.Version != SnapshotVersion {
		t.Fatalf("inspect: id=%q version=%d", info.ID, info.Version)
	}
	if info.Points == 0 || info.Points != info.Emitted+info.Pending {
		t.Fatalf("inspect: points=%d emitted=%d pending=%d", info.Points, info.Emitted, info.Pending)
	}
	if info.Lag != 2 || info.Bytes != len(data) {
		t.Fatalf("inspect: lag=%d bytes=%d", info.Lag, info.Bytes)
	}
	if len(info.WeightsHash) != 64 || len(info.Fingerprint) != 16 {
		t.Fatalf("inspect: weights_hash=%q fingerprint=%q", info.WeightsHash, info.Fingerprint)
	}
	if _, err := InspectStreamSnapshot(data[:snapMinLen-1]); err == nil {
		t.Fatal("inspect accepted a truncated snapshot")
	}
}

// Arbitrary bytes must decode to an error or a snapshot — never a
// panic and never a giant allocation. The CRC footer rejects almost
// all mutations outright, so each input is also re-tried with a fixed
// CRC to exercise the structural validation behind the gate.
func FuzzSnapshotDecode(f *testing.F) {
	m, wh, data := snapshotFixture(f)
	f.Add(data)
	f.Add(data[:len(data)/2])
	f.Add([]byte(snapMagic))
	f.Add(withVersion(data, SnapshotVersion+9))
	f.Add(withVersion(data, 1))
	truncated := refit(data[: len(data)/3 : len(data)/3])
	f.Add(truncated)
	f.Add(withVersion(data, 2))

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, fixCRC(b)} {
			if snap, err := DecodeStreamSnapshot(m, wh, in); err == nil && snap == nil {
				t.Fatal("nil snapshot without error")
			}
			if info, err := InspectStreamSnapshot(in); err == nil && info == nil {
				t.Fatal("nil info without error")
			}
		}
	})
}

// fixCRC makes arbitrary fuzz bytes pass the CRC gate by rewriting the
// footer (no-op on inputs too short to carry one).
func fixCRC(b []byte) []byte {
	if len(b) < snapMinLen {
		return b
	}
	return refit(b)
}

func BenchmarkSnapshotEncode(b *testing.B) {
	d := testDataset(b, 10)
	m := streamModel(b, d)
	wh := m.WeightsHash()
	tr := d.TestTrips()[0]
	sm := m.NewStream(2)
	for _, p := range tr.Cell {
		if _, err := sm.Push(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		data, err := EncodeStreamSnapshot(sm, "bench", wh)
		if err != nil {
			b.Fatal(err)
		}
		n = len(data)
	}
	b.SetBytes(int64(n))
}

func BenchmarkSnapshotDecode(b *testing.B) {
	m, wh, data := snapshotFixture(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeStreamSnapshot(m, wh, data); err != nil {
			b.Fatal(err)
		}
	}
}
