// Package spatial provides a uniform grid spatial index over items with
// rectangular extents. It supports the queries the map-matching pipeline
// needs: radius search, k-nearest-neighbour search, and rectangle
// queries, each against either item extents or item reference points.
//
// A uniform grid is the right structure here: road segments and cell
// towers are roughly uniformly dense at city scale, insertions happen
// once at load time, and queries are tight (a few hundred meters to a
// few kilometers), so the grid beats tree structures in both simplicity
// and constant factors.
package spatial

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/geo"
)

// Item is anything indexable by the grid: it exposes a bounding
// rectangle (for coarse placement) and an exact distance to a query
// point (for refinement).
type Item interface {
	// Bounds returns the item's axis-aligned bounding rectangle.
	Bounds() geo.Rect
	// DistTo returns the exact distance from p to the item in meters.
	DistTo(p geo.Point) float64
}

// Grid is a uniform-cell spatial index. The zero value is not usable;
// construct with NewGrid. Grid is safe for concurrent readers once
// built; Insert must not race with queries.
type Grid struct {
	cellSize float64
	origin   geo.Point
	cols     int
	rows     int
	cells    [][]int // cell -> item ids
	items    []Item

	nearest sync.Pool // *nearScratch
}

// AutoCellSize picks a cell size for indexing itemCount items spread
// over bounds so that an average cell holds about targetPerCell items
// (<= 0 selects the default of 4). Sizing by density instead of by a
// fixed bounds fraction keeps per-cell occupancy — and therefore
// per-query refinement cost — flat as networks grow from test lattices
// to metro-scale extents. The result is clamped to [minCell, the larger
// bounds dimension] so tiny test fixtures and degenerate inputs stay
// well-formed; minCell <= 0 selects the default of 50 m.
func AutoCellSize(bounds geo.Rect, itemCount, targetPerCell int, minCell float64) float64 {
	if targetPerCell <= 0 {
		targetPerCell = 4
	}
	if minCell <= 0 {
		minCell = 50
	}
	w, h := bounds.Width(), bounds.Height()
	maxDim := math.Max(w, h)
	if maxDim <= 0 || itemCount <= 0 {
		return minCell
	}
	// Solve cells = area/cell² ≈ itemCount/targetPerCell. Degenerate
	// (zero-area) bounds fall back to the linear analogue.
	area := w * h
	var cell float64
	if area > 0 {
		cell = math.Sqrt(area * float64(targetPerCell) / float64(itemCount))
	} else {
		cell = maxDim * float64(targetPerCell) / float64(itemCount)
	}
	return math.Min(math.Max(cell, minCell), maxDim)
}

// NewGrid creates a grid covering the rectangle bounds with square cells
// of the given size in meters. The bounds are buffered by one cell so
// items on the boundary index cleanly. cellSize must be positive and the
// bounds non-degenerate; NewGrid panics otherwise since both are
// programmer errors.
func NewGrid(bounds geo.Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		panic(fmt.Sprintf("spatial: non-positive cell size %v", cellSize))
	}
	if bounds.Width() < 0 || bounds.Height() < 0 {
		panic(fmt.Sprintf("spatial: inverted bounds %v", bounds))
	}
	b := bounds.Buffer(cellSize)
	cols := int(math.Ceil(b.Width()/cellSize)) + 1
	rows := int(math.Ceil(b.Height()/cellSize)) + 1
	return &Grid{
		cellSize: cellSize,
		origin:   b.Min,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int, cols*rows),
	}
}

// Len returns the number of indexed items.
func (g *Grid) Len() int { return len(g.items) }

// Item returns the item with the given id (the value returned by
// Insert). It panics on an out-of-range id.
func (g *Grid) Item(id int) Item { return g.items[id] }

// Insert adds an item to the index and returns its id. Items whose
// bounds fall partly outside the grid are clamped to the boundary cells,
// so they remain findable (at a small refinement cost).
func (g *Grid) Insert(it Item) int {
	id := len(g.items)
	g.items = append(g.items, it)
	c0, r0 := g.cellAt(it.Bounds().Min)
	c1, r1 := g.cellAt(it.Bounds().Max)
	for r := r0; r <= r1; r++ {
		for c := c0; c <= c1; c++ {
			idx := r*g.cols + c
			g.cells[idx] = append(g.cells[idx], id)
		}
	}
	return id
}

// cellAt maps a point to (col, row), clamped into the grid.
func (g *Grid) cellAt(p geo.Point) (int, int) {
	return cellIndex((p.X-g.origin.X)/g.cellSize, g.cols), cellIndex((p.Y-g.origin.Y)/g.cellSize, g.rows)
}

// cellIndex truncates a cell coordinate and clamps it into [0, n). The
// clamp runs on the float: a coordinate beyond the int range (a finite
// point absurdly far away) must land on its own side of the grid, and
// converting it first would not say which.
func cellIndex(f float64, n int) int {
	if !(f > 0) {
		return 0
	}
	if f >= float64(n-1) {
		return n - 1
	}
	return int(f)
}

// Within returns the ids of all items whose exact distance to p is at
// most radius, in ascending distance order.
func (g *Grid) Within(p geo.Point, radius float64) []int {
	type hit struct {
		id int
		d  float64
	}
	var hits []hit
	seen := make(map[int]bool)
	g.forCandidates(geo.RectAround(p, radius), func(id int) {
		if seen[id] {
			return
		}
		seen[id] = true
		if d := g.items[id].DistTo(p); d <= radius {
			hits = append(hits, hit{id, d})
		}
	})
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].d != hits[j].d {
			return hits[i].d < hits[j].d
		}
		return hits[i].id < hits[j].id
	})
	ids := make([]int, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids
}

// Nearest returns the ids of the k items nearest to p, ascending by
// (distance, id). It returns fewer than k ids only when the index holds
// fewer than k items. The search expands ring by ring, so typical-case
// cost is proportional to local density, not index size.
//
// A square of half-width radius around p is scanned, doubling the
// radius until k hits lie within it: every item the square's cells do
// not hold is farther than radius away, so those k are the k nearest of
// the whole index, and (distance, id) being a total order, the result
// does not depend on how the radius grew or where it started. The first
// square is the one whose inscribed disc holds k items at the index's
// mean density: ceil(sqrt(k·cells/(π·items))) cells, at least one. Each
// doubling visits only the cells the previous rectangle did not cover,
// each item's distance is taken once, and the hits are ordered once, at
// the end. The search also ends when the rectangle covers the whole
// grid — cellAt clamps, so for a query far outside the bounds that is
// the only sound reason to stop.
func (g *Grid) Nearest(p geo.Point, k int) []int {
	if k <= 0 || len(g.items) == 0 {
		return nil
	}
	if k > len(g.items) {
		k = len(g.items)
	}
	cells := float64(g.cols * g.rows)
	start := math.Ceil(math.Sqrt(float64(k) * cells / (math.Pi * float64(len(g.items)))))
	return g.nearestFrom(p, k, start*g.cellSize)
}

// nearestFrom is Nearest for 1 <= k <= Len(), its first square of
// half-width radius.
func (g *Grid) nearestFrom(p geo.Point, k int, radius float64) []int {
	sc := g.scratch()
	sc.hits = sc.hits[:0]
	certain := 0 // hits[:certain] have d <= radius
	// The cell rectangle scanned so far; empty before the first ring.
	pc0, pr0, pc1, pr1 := 0, 0, -1, -1
	for ; ; radius *= 2 {
		c0, r0 := g.cellAt(geo.Pt(p.X-radius, p.Y-radius))
		c1, r1 := g.cellAt(geo.Pt(p.X+radius, p.Y+radius))
		for row := r0; row <= r1; row++ {
			if row < pr0 || row > pr1 {
				g.scanRow(sc, p, row, c0, c1)
			} else {
				g.scanRow(sc, p, row, c0, pc0-1)
				g.scanRow(sc, p, row, pc1+1, c1)
			}
		}
		pc0, pr0, pc1, pr1 = c0, r0, c1, r1
		hits := sc.hits
		for i := certain; i < len(hits); i++ {
			if hits[i].d <= radius {
				hits[i], hits[certain] = hits[certain], hits[i]
				certain++
			}
		}
		if certain >= k {
			break
		}
		// The whole grid scanned; +Inf ends a non-finite query, whose
		// rectangle never grows.
		if c0 == 0 && r0 == 0 && c1 == g.cols-1 && r1 == g.rows-1 || math.IsInf(radius, 1) {
			certain = len(hits)
			break
		}
	}
	hits := sc.hits[:certain] // the k nearest are among the certain
	if k > len(hits) {
		k = len(hits)
	}
	selectNearest(hits, k)
	hits = hits[:k]
	slices.SortFunc(hits, func(a, b nearHit) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	})
	ids := make([]int, k)
	for i := range ids {
		ids[i] = hits[i].id
	}
	g.nearest.Put(sc)
	return ids
}

// scanRow takes the distance of every item in cells [c0, c1] of one row
// that the query has not met yet.
func (g *Grid) scanRow(sc *nearScratch, p geo.Point, row, c0, c1 int) {
	mark, epoch := sc.mark, sc.epoch
	for _, cell := range g.cells[row*g.cols+c0 : row*g.cols+c1+1] {
		for _, id := range cell {
			if mark[id] != epoch {
				mark[id] = epoch
				sc.hits = append(sc.hits, nearHit{g.items[id].DistTo(p), id})
			}
		}
	}
}

// nearHit is one scanned item of a Nearest query.
type nearHit struct {
	d  float64
	id int
}

// before is the total order of a query's result: ascending (d, id).
func (a nearHit) before(b nearHit) bool {
	return a.d < b.d || a.d == b.d && a.id < b.id
}

// selectNearest permutes h so that its k smallest hits come first, in no
// particular order (quickselect, median-of-three pivots), leaving the
// caller to sort k hits instead of all of them.
func selectNearest(h []nearHit, k int) {
	lo, hi := 0, len(h)-1 // the boundary at k lies within h[lo:hi+1]
	for lo < hi {
		mid := lo + (hi-lo)/2
		if h[mid].before(h[lo]) {
			h[mid], h[lo] = h[lo], h[mid]
		}
		if h[hi].before(h[lo]) {
			h[hi], h[lo] = h[lo], h[hi]
		}
		if h[hi].before(h[mid]) {
			h[hi], h[mid] = h[mid], h[hi]
		}
		pivot := h[mid]
		i, j := lo, hi
		for i <= j {
			for h[i].before(pivot) {
				i++
			}
			for pivot.before(h[j]) {
				j--
			}
			if i <= j {
				h[i], h[j] = h[j], h[i]
				i++
				j--
			}
		}
		// h[lo:j+1] <= pivot <= h[i:hi+1], and anything between is the pivot:
		// a boundary at j+1 or at i is already in place.
		switch {
		case k <= j:
			hi = j
		case k > i:
			lo = i
		default:
			return
		}
	}
}

// nearScratch is the per-query state of Nearest: mark[id] == epoch means
// the query has already taken item id's distance, so starting a query is
// one increment rather than a clear. Pooled on the grid and held for one
// call, so concurrent queries never share one.
type nearScratch struct {
	mark  []uint32
	epoch uint32
	hits  []nearHit
}

// scratch borrows a query scratch with a fresh epoch, sized to the items
// indexed so far; when the epoch would wrap, the marks are cleared and
// counting restarts.
func (g *Grid) scratch() *nearScratch {
	sc, _ := g.nearest.Get().(*nearScratch)
	if sc == nil || len(sc.mark) < len(g.items) {
		sc = &nearScratch{mark: make([]uint32, len(g.items))}
	}
	if sc.epoch == math.MaxUint32 {
		clear(sc.mark)
		sc.epoch = 0
	}
	sc.epoch++
	return sc
}

// forCandidates calls fn for every item id stored in a cell overlapping
// r. Ids may repeat across cells; callers deduplicate.
func (g *Grid) forCandidates(r geo.Rect, fn func(id int)) {
	c0, r0 := g.cellAt(r.Min)
	c1, r1 := g.cellAt(r.Max)
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, id := range g.cells[row*g.cols+col] {
				fn(id)
			}
		}
	}
}

// PointItem adapts a bare point (e.g. a cell tower location) to the
// Item interface.
type PointItem struct {
	P geo.Point
}

// Bounds returns the degenerate rectangle at the point.
func (pi PointItem) Bounds() geo.Rect { return geo.Rect{Min: pi.P, Max: pi.P} }

// DistTo returns the Euclidean distance from p to the point.
func (pi PointItem) DistTo(p geo.Point) float64 { return pi.P.Dist(p) }

// SegmentItem adapts a line segment (e.g. a road segment) to the Item
// interface.
type SegmentItem struct {
	S geo.Segment
}

// Bounds returns the segment's bounding rectangle.
func (si SegmentItem) Bounds() geo.Rect {
	r := geo.Rect{Min: si.S.A, Max: si.S.A}
	return r.Extend(si.S.B)
}

// DistTo returns the distance from p to the nearest point on the segment.
func (si SegmentItem) DistTo(p geo.Point) float64 { return si.S.Dist(p) }
