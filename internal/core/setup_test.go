package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"
)

// TestBlockedSegTables holds the blocked table builder to one pass over
// every segment — segHalf's layer applied to all the segment rows for
// obsSeg and transSeg, QueryScoresInto over all of them for transQ —
// bit for bit at 1, 2 and 3 workers and at blocks of 1, 7 (which does
// not divide the segment count) and more than every segment, with rows
// of −0, NaN and ±Inf among the segments.
func TestBlockedSegTables(t *testing.T) {
	d := testDataset(t, 6)
	m, err := New(d, d.TrainTrips(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.RefreshEmbeddings()
	g := m.Graph
	segs := m.nodes.Rows(g.NumTowers, g.NumNodes()).Clone()
	if segs.R%7 == 0 {
		t.Fatalf("%d segments: a block of 7 divides them", segs.R)
	}
	for j := range segs.Row(0) {
		segs.Set(0, j, math.Copysign(0, -1))
	}
	segs.Set(segs.R/3, 1, math.NaN())
	segs.Set(segs.R/2, 2, math.Inf(1))
	segs.Set(segs.R-1, 0, math.Inf(-1))

	wantObs := m.segHalf(m.ObsMLP).Apply(segs)
	wantTrans := m.segHalf(m.TransMLP).Apply(segs)
	wantQ := make([]float64, segs.R)
	m.TransAtt.QueryScoresInto(wantQ, nil, segs)
	for _, workers := range []int{1, 2, 3} {
		for _, block := range []int{1, 7, segs.R + 1} {
			what := fmt.Sprintf("%d workers, block %d", workers, block)
			m.buildSegTables(segs, workers, block)
			for _, c := range []struct {
				name      string
				got, want []float64
			}{{"obsSeg", m.obsSeg.W, wantObs.W}, {"transSeg", m.transSeg.W, wantTrans.W}, {"transQ", m.transQ, wantQ}} {
				if !slices.Equal(bitsOf(c.got), bitsOf(c.want)) {
					t.Fatalf("%s: %s differs from the one-pass table", what, c.name)
				}
			}
		}
	}
}

// TestTrainSameAtGOMAXPROCS: training on one processor and on two gives
// the same weights and the same γ — the freeze pass's row blocks, the
// fuse pretraining beside phase 1 and the concurrent γ candidates change
// no bit of the result.
func TestTrainSameAtGOMAXPROCS(t *testing.T) {
	d := testDataset(t, 14)
	train := func(procs int) ([32]byte, float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, err := Train(d, fastConfig())
		if err != nil {
			t.Fatal(err)
		}
		return m.WeightsHash(), m.transGamma.W.W[0]
	}
	h1, g1 := train(1)
	h2, g2 := train(2)
	if h1 != h2 || g1 != g2 {
		t.Fatalf("GOMAXPROCS 1: hash %x γ %v; GOMAXPROCS 2: hash %x γ %v", h1, g1, h2, g2)
	}
}
