package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/hmm"
	"repro/internal/nn"
	"repro/internal/traj"
)

// refEmbeddings is the embedding oracle of the frozen model: the tape
// Enc.Forward over the every-node field, all |V| rows (towers, then
// segments). It shares no code with Encoder.Embed, the pass
// RefreshEmbeddings runs, and it reads the segment rows the model no
// longer keeps.
func refEmbeddings(m *Model) *nn.Mat {
	return m.Enc.Forward(nn.NewTape(), m.Enc.Field(m.Graph, nil)).Val
}

// refRefresh is the tape refresh the frozen model replaced:
// refEmbeddings, then the three per-segment tables from its segment
// rows.
func refRefresh(m *Model) {
	h := refEmbeddings(m)
	m.segTables(h.Rows(m.Graph.NumTowers, m.Graph.NumNodes()))
}

// checkTowerRows asserts that the model holds exactly one frozen row per
// tower, bit-equal to the oracle's tower rows over src, the model m was
// frozen from that still holds its encoder (m itself, unless loaded).
func checkTowerRows(t *testing.T, m, src *Model, when string) {
	t.Helper()
	emb := m.Embeddings()
	if emb == nil || emb.R != m.Graph.NumTowers || emb.C != m.Cfg.Dim {
		t.Fatalf("%s: Embeddings() is %+v, want %d×%d tower rows", when, emb, m.Graph.NumTowers, m.Cfg.Dim)
	}
	ref := refEmbeddings(src)
	for i, w := range ref.Rows(0, m.Graph.NumTowers).W {
		if math.Float64bits(emb.W[i]) != math.Float64bits(w) {
			t.Fatalf("%s: tower embedding[%d] = %v, tape %v", when, i, emb.W[i], w)
		}
	}
}

// TestFrozenModelHoldsTowerRows: a trained, a loaded and a file-loaded
// model each keep only the tower rows of the node embeddings, equal to
// the tape pass's bit for bit; the weights survive Save and Load; and
// one refresh allocates less than half of what the tape refresh does.
func TestFrozenModelHoldsTowerRows(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTowerRows(t, m, m, "after Train")

	m2 := savedAndLoaded(t, d, cfg, m)
	checkTowerRows(t, m2, m, "after New + Load")
	if m2.WeightsHash() != m.WeightsHash() {
		t.Fatal("Save → Load changed WeightsHash")
	}
	m3, err := LoadModel(d, savedFile(t, m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTowerRows(t, m3, m, "after LoadModel")
	if m3.WeightsHash() != m.WeightsHash() {
		t.Fatal("Save → LoadModel changed WeightsHash")
	}

	if raceEnabled {
		t.Skip("allocation comparison skipped under -race")
	}
	// At the benchmark's dimension, where the |V|×d rows outweigh the
	// field's adjacency lists.
	cfg.Dim = 128
	big, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	frozen := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			big.RefreshEmbeddings()
		}
	}).AllocedBytesPerOp()
	tape := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refRefresh(big)
		}
	}).AllocedBytesPerOp()
	t.Logf("RefreshEmbeddings %d B/op, tape refresh %d B/op", frozen, tape)
	if 2*frozen >= tape {
		t.Fatalf("RefreshEmbeddings allocates %d B/op, not under half the tape refresh's %d", frozen, tape)
	}
}

// savedFile saves m into a fresh weights file and returns its path.
func savedFile(t *testing.T, m *Model) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "model.lhmm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadedModelIsInferenceOnly: New + Load, NewForLoad + Load and
// LoadModel each return a model without the encoder or the graph's
// relation adjacencies, which
// matches every test trip as the trained model does, bit for bit — the
// batch path and per-point Viterbi scores, and the stream's emissions at
// lags 0, 2 and past the trip's end — and has the trained model's
// WeightsHash; Save refuses it without writing a byte, and
// RefreshEmbeddings panics, both with ErrInferenceOnly.
func TestLoadedModelIsInferenceOnly(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadModel(d, savedFile(t, m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	skeleton, err := NewForLoad(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := m.Save(&file); err != nil {
		t.Fatal(err)
	}
	if err := skeleton.Load(&file); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		loaded *Model
	}{
		{"New + Load", savedAndLoaded(t, d, cfg, m)},
		{"NewForLoad + Load", skeleton},
		{"LoadModel", fromFile},
	} {
		t.Run(c.name, func(t *testing.T) {
			l := c.loaded
			if l.Enc != nil {
				t.Fatal("the loaded model holds its encoder")
			}
			if g := l.Graph; g.CO != nil || g.SQ != nil || g.TP != nil {
				t.Fatal("the loaded model's graph holds its relation adjacencies")
			}
			checkSameMatches(t, m, l, d.TestTrips())
			if l.WeightsHash() != m.WeightsHash() {
				t.Fatal("the loaded model's WeightsHash differs from the trained model's")
			}
			var buf bytes.Buffer
			if err := l.Save(&buf); !errors.Is(err, ErrInferenceOnly) || buf.Len() != 0 {
				t.Fatalf("Save: error %v after %d bytes, want ErrInferenceOnly after none", err, buf.Len())
			}
			defer func() {
				if r := recover(); r != ErrInferenceOnly {
					t.Fatalf("RefreshEmbeddings panicked with %v, want ErrInferenceOnly", r)
				}
			}()
			l.RefreshEmbeddings()
		})
	}
}

// TestLoadRoundTrip is the oracle of the model file: Load(Save(m)) and
// LoadModel of a trained model hold tower rows and obsSeg, transSeg and
// transQ Float64bits-equal to m's, match the core fixture's trips as m
// does (batch and stream) and have m's WeightsHash. Load reads the node
// rows from the file, so it needs no encoder: the New model's is
// dropped before the load.
func TestLoadRoundTrip(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	m, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := m.Save(&file); err != nil {
		t.Fatal(err)
	}
	noEnc, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	noEnc.Enc = nil
	if err := noEnc.Load(bytes.NewReader(file.Bytes())); err != nil {
		t.Fatal(err)
	}
	fromFile, err := LoadModel(d, savedFile(t, m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	trips := make([]*traj.Trip, len(d.Trips))
	for i := range d.Trips {
		trips[i] = &d.Trips[i]
	}
	for name, l := range map[string]*Model{"Load": noEnc, "LoadModel": fromFile} {
		for _, c := range []struct {
			what      string
			got, want []float64
		}{
			{"tower rows", l.emb.W, m.emb.W},
			{"obsSeg", l.obsSeg.W, m.obsSeg.W},
			{"transSeg", l.transSeg.W, m.transSeg.W},
			{"transQ", l.transQ, m.transQ},
		} {
			if !slices.Equal(f64bits(c.got), f64bits(c.want)) {
				t.Fatalf("%s: %s differ from the trained model's", name, c.what)
			}
		}
		checkSameMatches(t, m, l, trips)
		if l.WeightsHash() != m.WeightsHash() {
			t.Fatalf("%s: WeightsHash differs from the trained model's", name)
		}
	}
}

// f64bits returns the bit patterns of vs.
func f64bits(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

// TestLoadRefusesOtherFiles: Load and LoadModel refuse, each with an
// error that says why, an lhmm-weights/v1 file, node rows of another
// shape than the graph's |V|×d, a missing entry, an encoder entry and
// entries out of Save's order; and Save refuses a model with no frozen
// node rows yet, writing nothing.
func TestLoadRefusesOtherFiles(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	m, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var file bytes.Buffer
	if err := m.Save(&file); !errors.Is(err, errNotFrozen) || file.Len() != 0 {
		t.Fatalf("Save before RefreshEmbeddings: error %v after %d bytes, want errNotFrozen after none", err, file.Len())
	}
	m.RefreshEmbeddings()
	if err := m.Save(&file); err != nil {
		t.Fatal(err)
	}
	// edited re-saves the file with its tensors passed through edit.
	edited := func(edit func([]*nn.Param) []*nn.Param) []byte {
		pf, err := nn.ReadParams(bytes.NewReader(file.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nn.SaveParams(&buf, edit(pf.Params())); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v1 := append([]byte(nil), file.Bytes()...)
	binary.LittleEndian.PutUint16(v1[8:], 1)
	n := d.Net.NumSegments() + d.Cells.NumTowers()
	for _, c := range []struct {
		name, want string
		file       []byte
	}{
		{"v1", "version 1, this build reads version 2: retrain", refit(v1)},
		{"rows shape", fmt.Sprintf(`"emb.nodes" shape %d×%d, file has %d×%d`, n, cfg.Dim, n-1, cfg.Dim),
			edited(func(ps []*nn.Param) []*nn.Param {
				ps[0].W = ps[0].W.Rows(0, n-1)
				return ps
			})},
		{"missing", `"meta.transGamma" not in file`, edited(func(ps []*nn.Param) []*nn.Param {
			return ps[:len(ps)-1]
		})},
		{"encoder entry", `file has tensor "enc.init"`, edited(func(ps []*nn.Param) []*nn.Param {
			return append([]*nn.Param{nn.NewZeroParam("enc.init", n, cfg.Dim)}, ps...)
		})},
		{"out of order", `"obs.att.Wq" is not tensor 1 of the file (entries must be in save order)`,
			edited(func(ps []*nn.Param) []*nn.Param {
				ps[1], ps[2] = ps[2], ps[1]
				return ps
			})},
	} {
		t.Run(c.name, func(t *testing.T) {
			l, err := New(d, d.TrainTrips(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Load(bytes.NewReader(c.file)); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Load: err %v, want one containing %q", err, c.want)
			}
			path := filepath.Join(t.TempDir(), "model.lhmm")
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadModel(d, path, cfg); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("LoadModel: err %v, want one containing %q", err, c.want)
			}
		})
	}
}

// checkSameMatches asserts that got matches every trip exactly as want
// does: the batch path and score, each point's candidates and chosen
// Viterbi score (the Explain artifact), and the stream's emissions at
// lags 0, 2 and n, all compared by Float64bits.
func checkSameMatches(t *testing.T, want, got *Model, trips []*traj.Trip) {
	t.Helper()
	want.Cfg.Explain, got.Cfg.Explain = true, true
	defer func() { want.Cfg.Explain, got.Cfg.Explain = false, false }()
	for n, tr := range trips {
		a, err := want.Match(tr.Cell)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.Match(tr.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.Path, b.Path) || !slices.Equal(matchBits(a), matchBits(b)) {
			t.Fatalf("trip %d: batch match differs from the trained model's", n)
		}
		for _, lag := range []int{0, 2, len(tr.Cell)} {
			if !slices.Equal(streamBits(t, want, tr.Cell, lag), streamBits(t, got, tr.Cell, lag)) {
				t.Fatalf("trip %d: stream emissions at lag %d differ from the trained model's", n, lag)
			}
		}
	}
}

// matchBits flattens a batch result's score, its matched candidates and
// its per-point explanation (every listed candidate, the chosen
// accumulated score and step weight) into float bits.
func matchBits(res *hmm.Result) []uint64 {
	out := []uint64{math.Float64bits(res.Score)}
	out = candBits(out, res.Matched)
	for _, p := range res.Explain.Points {
		for _, c := range p.Candidates {
			out = append(out, uint64(c.Seg), math.Float64bits(c.Obs))
		}
		if ch := p.Chosen; ch != nil {
			out = append(out, uint64(ch.Seg), math.Float64bits(ch.Score), math.Float64bits(ch.TransScore))
		}
	}
	return out
}

// streamBits pushes ct through a stream at the given lag and flattens
// every emitted candidate into float bits.
func streamBits(t *testing.T, m *Model, ct traj.CellTrajectory, lag int) []uint64 {
	t.Helper()
	sm := m.NewStream(lag)
	var out []uint64
	for _, p := range ct {
		emitted, err := sm.Push(p)
		if err != nil {
			t.Fatal(err)
		}
		out = candBits(out, emitted)
	}
	return candBits(out, sm.Flush())
}

// candBits appends each candidate's segment and float fields as bits.
func candBits(out []uint64, cs []hmm.Candidate) []uint64 {
	for _, c := range cs {
		out = append(out, uint64(c.Seg), math.Float64bits(c.Frac), math.Float64bits(c.Dist), math.Float64bits(c.Obs))
	}
	return out
}

// TestNewForLoadHoldsNoEncoder: the load skeleton has New's heads in
// shape and no encoder, so before any Load it already refuses Save and
// RefreshEmbeddings with ErrInferenceOnly; New's construction, the one
// Train runs, still holds its encoder.
func TestNewForLoadHoldsNoEncoder(t *testing.T) {
	d := testDataset(t, 12)
	cfg := fastConfig()
	full, err := New(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewForLoad(d, d.TrainTrips(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Enc == nil || m.Enc != nil {
		t.Fatalf("encoders: New %v, NewForLoad %v; want one and none", full.Enc != nil, m.Enc != nil)
	}
	want, got := full.matchParams(), m.matchParams()
	if len(got) != len(want) {
		t.Fatalf("NewForLoad has %d match parameters, New %d", len(got), len(want))
	}
	for i, p := range want {
		if q := got[i]; q.Name != p.Name || q.W.R != p.W.R || q.W.C != p.W.C {
			t.Fatalf("parameter %d: NewForLoad %s %d×%d, New %s %d×%d", i, q.Name, q.W.R, q.W.C, p.Name, p.W.R, p.W.C)
		}
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); !errors.Is(err, ErrInferenceOnly) || buf.Len() != 0 {
		t.Fatalf("Save: error %v after %d bytes, want ErrInferenceOnly after none", err, buf.Len())
	}
	defer func() {
		if r := recover(); r != ErrInferenceOnly {
			t.Fatalf("RefreshEmbeddings panicked with %v, want ErrInferenceOnly", r)
		}
	}()
	m.RefreshEmbeddings()
}
