package spatial

import (
	"math/rand"
	"testing"

	"repro/internal/geo"
)

func TestAutoCellSize(t *testing.T) {
	big := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(40000, 40000)}
	cases := []struct {
		name      string
		bounds    geo.Rect
		items     int
		wantAtMin bool // expect the minCell floor
	}{
		{"empty", big, 0, true},
		{"degenerate bounds", geo.Rect{Min: geo.Pt(3, 3), Max: geo.Pt(3, 3)}, 100, true},
		{"dense", big, 1 << 23, true},
		{"metro", big, 100000, false},
		{"sparse", big, 16, false},
	}
	for _, c := range cases {
		cell := AutoCellSize(c.bounds, c.items, 0, 0)
		maxDim := c.bounds.Width()
		if c.bounds.Height() > maxDim {
			maxDim = c.bounds.Height()
		}
		if cell < 50 || (maxDim > 0 && cell > maxDim) {
			t.Errorf("%s: cell %v outside [50, max(dim, 50)]", c.name, cell)
		}
		if c.wantAtMin && cell != 50 {
			t.Errorf("%s: cell = %v, want the 50 m floor", c.name, cell)
		}
		if !c.wantAtMin && cell == 50 {
			t.Errorf("%s: cell hit the floor; density sizing had no effect", c.name)
		}
	}
	// Density invariance: scaling items 4x halves the cell.
	c1 := AutoCellSize(big, 10000, 4, 0)
	c2 := AutoCellSize(big, 40000, 4, 0)
	if got, want := c1/c2, 2.0; got < want-0.01 || got > want+0.01 {
		t.Errorf("cell ratio for 4x items = %v, want 2", got)
	}
}

// Query results are cell-size independent — only cost may change.
func TestAutoCellSameResultsAsFixed(t *testing.T) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(20000, 20000)}
	rng := rand.New(rand.NewSource(9))
	auto := NewGrid(bounds, AutoCellSize(bounds, 4000, 0, 0))
	fixed := NewGrid(bounds, bounds.Width()/256)
	for i := 0; i < 4000; i++ {
		p := geo.Pt(rng.Float64()*20000, rng.Float64()*20000)
		q := geo.Pt(p.X+rng.Float64()*120-60, p.Y+rng.Float64()*120-60)
		auto.Insert(SegmentItem{S: geo.Segment{A: p, B: q}})
		fixed.Insert(SegmentItem{S: geo.Segment{A: p, B: q}})
	}
	for trial := 0; trial < 200; trial++ {
		p := geo.Pt(rng.Float64()*20000, rng.Float64()*20000)
		a, f := auto.Nearest(p, 5), fixed.Nearest(p, 5)
		if len(a) != len(f) {
			t.Fatalf("Nearest count mismatch at %v: %d vs %d", p, len(a), len(f))
		}
		for i := range a {
			if a[i] != f[i] {
				t.Fatalf("Nearest mismatch at %v: %v vs %v", p, a, f)
			}
		}
		aw, fw := auto.Within(p, 300), fixed.Within(p, 300)
		if len(aw) != len(fw) {
			t.Fatalf("Within count mismatch at %v: %d vs %d", p, len(aw), len(fw))
		}
	}
}

// benchGrid builds a metro-density segment soup: ~100k short segments
// over a 40 km extent, the regime where cell sizing starts to matter.
func benchGrid(cell float64) (*Grid, *rand.Rand) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(40000, 40000)}
	g := NewGrid(bounds, cell)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		p := geo.Pt(rng.Float64()*40000, rng.Float64()*40000)
		q := geo.Pt(p.X+rng.Float64()*200-100, p.Y+rng.Float64()*200-100)
		g.Insert(SegmentItem{S: geo.Segment{A: p, B: q}})
	}
	return g, rand.New(rand.NewSource(13))
}

func benchmarkNearest(b *testing.B, cell float64) {
	g, rng := benchGrid(cell)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := geo.Pt(rng.Float64()*40000, rng.Float64()*40000)
		g.Nearest(p, 30) // k matches the matcher's candidate pool
	}
}

// The fixed baseline is the pre-auto sizing rule (bounds/256
// regardless of density); the auto variant sizes cells from item
// density. Compare with: go test -bench Nearest ./internal/spatial/
func BenchmarkNearestFixedCell(b *testing.B) {
	benchmarkNearest(b, 40000.0/256)
}

func BenchmarkNearestAutoCell(b *testing.B) {
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt(40000, 40000)}
	benchmarkNearest(b, AutoCellSize(bounds, 100000, 0, 0))
}

// BenchmarkNearest is the candidate lookup at the repository benchmark's
// shape: k = 90 (the learned matcher's pool) over a two-way street
// lattice of about 8,000 segments, cells sized for ~4 items each.
func BenchmarkNearest(b *testing.B) {
	const side, step = 45, 200.0
	bounds := geo.Rect{Min: geo.Pt(0, 0), Max: geo.Pt((side-1)*step, (side-1)*step)}
	g := NewGrid(bounds, AutoCellSize(bounds, 4*side*(side-1), 0, 0))
	for i := 0; i < side; i++ {
		for j := 0; j+1 < side; j++ {
			u, v := float64(i)*step, float64(j)*step
			for _, s := range []geo.Segment{
				{A: geo.Pt(u, v), B: geo.Pt(u, v+step)}, {A: geo.Pt(u, v+step), B: geo.Pt(u, v)},
				{A: geo.Pt(v, u), B: geo.Pt(v+step, u)}, {A: geo.Pt(v+step, u), B: geo.Pt(v, u)},
			} {
				g.Insert(SegmentItem{S: s})
			}
		}
	}
	rng := rand.New(rand.NewSource(13))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Nearest(geo.Pt(rng.Float64()*bounds.Max.X, rng.Float64()*bounds.Max.Y), 90)
	}
}
