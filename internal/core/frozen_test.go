package core

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
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
// tower, bit-equal to the oracle's tower rows.
func checkTowerRows(t *testing.T, m *Model, when string) {
	t.Helper()
	emb := m.Embeddings()
	if emb == nil || emb.R != m.Graph.NumTowers || emb.C != m.Cfg.Dim {
		t.Fatalf("%s: Embeddings() is %+v, want %d×%d tower rows", when, emb, m.Graph.NumTowers, m.Cfg.Dim)
	}
	ref := refEmbeddings(m)
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
	checkTowerRows(t, m, "after Train")

	m2 := savedAndLoaded(t, d, cfg, m)
	checkTowerRows(t, m2, "after New + Load")
	if m2.WeightsHash() != m.WeightsHash() {
		t.Fatal("Save → Load changed WeightsHash")
	}
	path := filepath.Join(t.TempDir(), "model.lhmm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m3, err := LoadModel(d, path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkTowerRows(t, m3, "after LoadModel")
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
