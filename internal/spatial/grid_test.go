package spatial

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/geo"
)

func buildPointGrid(t *testing.T, pts []geo.Point, cell float64) *Grid {
	t.Helper()
	bounds := geo.Rect{Min: geo.Pt(-1000, -1000), Max: geo.Pt(1000, 1000)}
	g := NewGrid(bounds, cell)
	for _, p := range pts {
		g.Insert(PointItem{p})
	}
	return g
}

func TestNewGridPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewGrid with zero cell size did not panic")
		}
	}()
	NewGrid(geo.Rect{}, 0)
}

func TestWithin(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(0, 50), geo.Pt(200, 200)}
	g := buildPointGrid(t, pts, 25)
	got := g.Within(geo.Pt(0, 0), 60)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Within = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Within = %v, want %v (sorted by distance)", got, want)
		}
	}
	if got := g.Within(geo.Pt(500, 500), 10); len(got) != 0 {
		t.Errorf("empty Within = %v", got)
	}
}

func TestNearest(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(5, 0), geo.Pt(100, 0), geo.Pt(-300, 0)}
	g := buildPointGrid(t, pts, 25)
	got := g.Nearest(geo.Pt(1, 0), 3)
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nearest = %v, want %v", got, want)
		}
	}
	// k larger than item count returns all items.
	if got := g.Nearest(geo.Pt(0, 0), 99); len(got) != 4 {
		t.Errorf("Nearest(k=99) returned %d items, want 4", len(got))
	}
	if got := g.Nearest(geo.Pt(0, 0), 0); got != nil {
		t.Errorf("Nearest(k=0) = %v, want nil", got)
	}
	if got := NewGrid(geo.RectAround(geo.Pt(0, 0), 10), 5).Nearest(geo.Pt(0, 0), 3); got != nil {
		t.Errorf("Nearest on empty grid = %v, want nil", got)
	}
}

// Property: Nearest agrees with brute force on random point sets.
func TestNearestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
		}
		g := buildPointGrid(t, pts, 50+rng.Float64()*200)
		q := geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
		k := 1 + rng.Intn(10)

		got := g.Nearest(q, k)

		type hit struct {
			id int
			d  float64
		}
		brute := make([]hit, n)
		for i, p := range pts {
			brute[i] = hit{i, p.Dist(q)}
		}
		sort.Slice(brute, func(i, j int) bool { return brute[i].d < brute[j].d })
		wantK := k
		if wantK > n {
			wantK = n
		}
		if len(got) != wantK {
			t.Fatalf("trial %d: got %d results, want %d", trial, len(got), wantK)
		}
		for i := 0; i < wantK; i++ {
			// Compare by distance (ids may tie).
			gd := pts[got[i]].Dist(q)
			if math.Abs(gd-brute[i].d) > 1e-9 {
				t.Fatalf("trial %d: rank %d distance %v, brute force %v", trial, i, gd, brute[i].d)
			}
		}
	}
}

// Property: Within agrees with brute force.
func TestWithinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(150)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
		}
		g := buildPointGrid(t, pts, 30+rng.Float64()*300)
		q := geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000)
		radius := rng.Float64() * 500

		got := g.Within(q, radius)
		want := map[int]bool{}
		for i, p := range pts {
			if p.Dist(q) <= radius {
				want[i] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: Within found %d, brute force %d", trial, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("trial %d: Within returned %d which is outside radius", trial, id)
			}
		}
		for i := 1; i < len(got); i++ {
			if pts[got[i-1]].Dist(q) > pts[got[i]].Dist(q)+1e-12 {
				t.Fatalf("trial %d: Within results not distance-sorted", trial)
			}
		}
	}
}

func TestSegmentItems(t *testing.T) {
	bounds := geo.RectAround(geo.Pt(0, 0), 500)
	g := NewGrid(bounds, 50)
	// A long horizontal segment spanning many cells.
	id := g.Insert(SegmentItem{geo.Segment{A: geo.Pt(-400, 0), B: geo.Pt(400, 0)}})
	g.Insert(SegmentItem{geo.Segment{A: geo.Pt(0, 300), B: geo.Pt(10, 300)}})

	// The long segment must be found when querying near its middle,
	// even though its endpoints are far away.
	got := g.Within(geo.Pt(3, 20), 25)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("Within near segment middle = %v, want [%d]", got, id)
	}
	near := g.Nearest(geo.Pt(0, 100), 1)
	if len(near) != 1 || near[0] != id {
		t.Fatalf("Nearest = %v, want [%d]", near, id)
	}
}

func TestInsertOutsideBoundsStillFindable(t *testing.T) {
	g := NewGrid(geo.RectAround(geo.Pt(0, 0), 100), 25)
	id := g.Insert(PointItem{geo.Pt(5000, 5000)}) // far outside
	got := g.Nearest(geo.Pt(4000, 4000), 1)
	if len(got) != 1 || got[0] != id {
		t.Fatalf("out-of-bounds item not found: %v", got)
	}
}

func TestItemAccessors(t *testing.T) {
	g := NewGrid(geo.RectAround(geo.Pt(0, 0), 100), 25)
	if g.Len() != 0 {
		t.Errorf("empty Len = %d", g.Len())
	}
	id := g.Insert(PointItem{geo.Pt(1, 2)})
	if g.Len() != 1 {
		t.Errorf("Len = %d, want 1", g.Len())
	}
	if it, ok := g.Item(id).(PointItem); !ok || it.P != geo.Pt(1, 2) {
		t.Errorf("Item = %v", g.Item(id))
	}
}

// refNearest is Nearest as it stood before the ring-incremental rewrite:
// every ring rescans the whole square through a map and re-sorts every
// hit. Kept as the oracle for queries it answers correctly — those whose
// last square reaches every cell that holds an item, which a query inside
// or just outside the bounds always does.
func refNearest(g *Grid, p geo.Point, k int) []int {
	if k <= 0 || len(g.items) == 0 {
		return nil
	}
	if k > len(g.items) {
		k = len(g.items)
	}
	type hit struct {
		id int
		d  float64
	}
	var hits []hit
	seen := make(map[int]bool)
	radius := g.cellSize
	maxRadius := math.Hypot(float64(g.cols), float64(g.rows)) * g.cellSize
	for {
		g.forCandidates(geo.RectAround(p, radius), func(id int) {
			if seen[id] {
				return
			}
			seen[id] = true
			hits = append(hits, hit{id, g.items[id].DistTo(p)})
		})
		sort.Slice(hits, func(i, j int) bool {
			if hits[i].d != hits[j].d {
				return hits[i].d < hits[j].d
			}
			return hits[i].id < hits[j].id
		})
		if len(hits) >= k && hits[k-1].d <= radius {
			break
		}
		if radius >= maxRadius {
			break
		}
		radius *= 2
	}
	if k > len(hits) {
		k = len(hits)
	}
	ids := make([]int, k)
	for i := 0; i < k; i++ {
		ids[i] = hits[i].id
	}
	return ids
}

// bruteNearest orders every item by (distance, id).
func bruteNearest(g *Grid, p geo.Point, k int) []int {
	ids := make([]int, g.Len())
	d := make([]float64, g.Len())
	for i := range ids {
		ids[i], d[i] = i, g.items[i].DistTo(p)
	}
	sort.Slice(ids, func(a, b int) bool {
		if d[ids[a]] != d[ids[b]] {
			return d[ids[a]] < d[ids[b]]
		}
		return ids[a] < ids[b]
	})
	return ids[:min(max(k, 0), len(ids))]
}

// randomGrid indexes n items over a 2 km square: points or segments,
// some spanning many cells, some exact duplicates of earlier ones, and
// coordinates snapped to a 40 m lattice so distances tie exactly.
func randomGrid(rng *rand.Rand, n int, segments bool) *Grid {
	bounds := geo.Rect{Min: geo.Pt(-1000, -1000), Max: geo.Pt(1000, 1000)}
	g := NewGrid(bounds, 40+rng.Float64()*260)
	pt := func() geo.Point {
		return geo.Pt(float64(rng.Intn(51)-25)*40, float64(rng.Intn(51)-25)*40)
	}
	for i := 0; i < n; i++ {
		switch {
		case i > 0 && rng.Intn(5) == 0:
			g.Insert(g.items[rng.Intn(i)])
		case !segments:
			g.Insert(PointItem{pt()})
		case rng.Intn(8) == 0: // long: crosses many cells
			g.Insert(SegmentItem{geo.Segment{A: pt(), B: pt()}})
		default:
			a := pt()
			g.Insert(SegmentItem{geo.Segment{A: a, B: geo.Pt(a.X+float64(rng.Intn(5)-2)*40, a.Y+float64(rng.Intn(5)-2)*40)}})
		}
	}
	return g
}

// TestNearestMatchesReference: the rewrite returns the very ids the old
// implementation did, element for element.
func TestNearestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 120; trial++ {
		n := rng.Intn(400)
		g := randomGrid(rng, n, trial%2 == 1)
		lo, hi := g.origin, geo.Pt(g.origin.X+float64(g.cols)*g.cellSize, g.origin.Y+float64(g.rows)*g.cellSize)
		queries := []geo.Point{
			geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000),
			geo.Pt(float64(rng.Intn(51)-25)*40, float64(rng.Intn(51)-25)*40), // on the lattice: ties
			geo.Pt(-1000, rng.Float64()*2000-1000),                           // on the border
			geo.Pt(1000, 1000),
			lo, hi, // the grid's own corners
			geo.Pt(lo.X-rng.Float64()*g.cellSize, rng.Float64()*2000-1000), // just outside
			geo.Pt(rng.Float64()*2000-1000, hi.Y+rng.Float64()*g.cellSize),
		}
		for _, q := range queries {
			for _, k := range []int{0, 1, 1 + rng.Intn(60), n, n + 7} {
				got, want := g.Nearest(q, k), refNearest(g, q, k)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d (n=%d cell=%.0f) q=%v k=%d:\n got %v\nwant %v", trial, n, g.cellSize, q, k, got, want)
				}
				if want := bruteNearest(g, q, k); n > 0 && k > 0 && !slices.Equal(got, want) {
					t.Fatalf("trial %d q=%v k=%d: got %v, brute force %v", trial, q, k, got, want)
				}
			}
		}
	}
}

// TestNearestFarOutside: cellAt clamps, so the square of a query far
// outside the bounds covers only border cells until it is wide enough to
// reach back; the search must keep widening until it covers the grid and
// return min(k, Len()) ids in true (distance, id) order. The old
// implementation stopped at the grid diagonal and returned nothing.
func TestNearestFarOutside(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(200)
		g := randomGrid(rng, n, trial%2 == 1)
		for _, far := range []float64{3e3, 1e6, 1e9, 1e300} {
			if far == 1e300 && trial%2 == 1 {
				continue // a segment's projection overflows there; points do not
			}
			for _, q := range []geo.Point{
				{X: far}, {X: -far}, {Y: far}, {Y: -far},
				{X: far, Y: far}, {X: -far, Y: far * 0.5},
			} {
				for _, k := range []int{1, 30, n, n + 1} {
					got, want := g.Nearest(q, k), bruteNearest(g, q, k)
					if len(got) != min(k, n) {
						t.Fatalf("trial %d q=%v k=%d: %d ids from %d items", trial, q, k, len(got), n)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("trial %d q=%v k=%d: got %v, brute force %v", trial, q, k, got, want)
					}
				}
			}
		}
	}
}

// oneCellNearest is Nearest started from a one-cell square, as it was
// before the density start: the oracle that where the search starts
// changes no result.
func oneCellNearest(g *Grid, p geo.Point, k int) []int {
	if k <= 0 || len(g.items) == 0 {
		return nil
	}
	return g.nearestFrom(p, min(k, len(g.items)), g.cellSize)
}

// TestNearestDensityStartMatchesOneCell: the density-sized first square
// returns the very ids the one-cell start does, element for element, for
// queries inside, on and far outside the bounds, sparse and dense grids,
// and k from 1 past Len().
func TestNearestDensityStartMatchesOneCell(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 160; trial++ {
		n := rng.Intn(600)
		g := randomGrid(rng, n, trial%2 == 1)
		queries := []geo.Point{
			geo.Pt(rng.Float64()*2000-1000, rng.Float64()*2000-1000),
			geo.Pt(float64(rng.Intn(51)-25)*40, float64(rng.Intn(51)-25)*40), // on the lattice: ties
			geo.Pt(-1000, rng.Float64()*2000-1000),
			g.origin,
			geo.Pt(3e3, -2e3), geo.Pt(-1e6, 1e6), // far outside
		}
		for _, q := range queries {
			for _, k := range []int{0, 1, 2 + rng.Intn(30), 90, n / 2, n, n + 3} {
				got, want := g.Nearest(q, k), oneCellNearest(g, q, k)
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d (n=%d cell=%.0f) q=%v k=%d:\n got %v\nwant %v", trial, n, g.cellSize, q, k, got, want)
				}
			}
		}
	}
}

// TestNearestNonFinite: a non-finite query has no nearest items, but it
// must come back.
func TestNearestNonFinite(t *testing.T) {
	g := randomGrid(rand.New(rand.NewSource(28)), 50, false)
	for _, q := range []geo.Point{{X: math.NaN()}, {X: math.Inf(1), Y: 3}, {X: math.Inf(-1), Y: math.Inf(1)}} {
		g.Nearest(q, 5)
	}
}

// TestNearestEpochWrap: a scratch whose epoch is about to wrap, every
// mark stale at the last epoch, clears its marks instead of taking them
// for visits of the new query.
func TestNearestEpochWrap(t *testing.T) {
	g := randomGrid(rand.New(rand.NewSource(29)), 300, true)
	q := geo.Pt(13, -77)
	want := bruteNearest(g, q, 40)
	// The pool may drop a Put (it does under the race detector), so retry
	// until a query has run on the poisoned scratch.
	for attempt := 0; attempt < 100; attempt++ {
		sc := g.scratch()
		sc.epoch = math.MaxUint32
		for i := range sc.mark {
			sc.mark[i] = math.MaxUint32
		}
		g.nearest.Put(sc)
		if got := g.Nearest(q, 40); !slices.Equal(got, want) {
			t.Fatalf("across the wrap: got %v, want %v", got, want)
		}
		if again := g.scratch(); again == sc {
			if again.epoch != 2 {
				t.Fatalf("epoch %d after the wrap and two borrows, want 2", again.epoch)
			}
			return
		}
	}
	t.Fatal("the pool never handed the poisoned scratch back")
}

// TestNearestInsertAfterQuery: a pooled scratch sized before an Insert
// is not reused for the larger index.
func TestNearestInsertAfterQuery(t *testing.T) {
	g := NewGrid(geo.RectAround(geo.Pt(0, 0), 100), 25)
	g.Insert(PointItem{geo.Pt(10, 10)})
	g.Nearest(geo.Pt(0, 0), 1)
	g.Insert(PointItem{geo.Pt(1, 1)})
	if got := g.Nearest(geo.Pt(0, 0), 2); !slices.Equal(got, []int{1, 0}) {
		t.Fatalf("Nearest after Insert = %v, want [1 0]", got)
	}
}

// TestNearestConcurrent: queries from several goroutines on one grid
// (run with -race) each get the answer a lone query gets.
func TestNearestConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	g := randomGrid(rng, 400, true)
	qs := make([]geo.Point, 64)
	want := make([][]int, len(qs))
	for i := range qs {
		qs[i] = geo.Pt(rng.Float64()*2400-1200, rng.Float64()*2400-1200)
		want[i] = bruteNearest(g, qs[i], 25)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				for i := range qs {
					j := (i + w*7) % len(qs)
					if got := g.Nearest(qs[j], 25); !slices.Equal(got, want[j]) {
						t.Errorf("worker %d query %d: got %v, want %v", w, j, got, want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestNearestAllocs: a warm query allocates its result and nothing else.
func TestNearestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes sync.Pool caching")
	}
	g := randomGrid(rand.New(rand.NewSource(31)), 400, true)
	q := geo.Pt(120, -340)
	g.Nearest(q, 90)
	if got := testing.AllocsPerRun(100, func() { g.Nearest(q, 90) }); got > 1 {
		t.Errorf("Nearest: %v allocs per warm call, want <= 1", got)
	}
}
