// Package mrg implements the paper's multi-relational representation
// learning (§IV-B): construction of the heterogeneous graph over cell
// towers and road segments with its three relation types —
// co-occurrence (CO), sequentiality (SQ), topology (TP) — and the
// Het-Graph Encoder, an R-GCN-style message-passing network (Eqs. 4–5)
// that embeds towers and roads in a shared space.
package mrg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cellular"
	"repro/internal/nn"
	"repro/internal/roadnet"
	"repro/internal/traj"
)

// Graph is the multi-relational graph 𝒢 = (𝒱_e, 𝒱_ct, ℰ). Nodes are
// indexed globally: towers occupy [0, NumTowers), road segments occupy
// [NumTowers, NumTowers+NumSegs).
type Graph struct {
	NumTowers int
	NumSegs   int

	// Row-normalized adjacency per relation (messages flow along rows:
	// row i lists the senders j whose embeddings node i averages).
	CO, SQ, TP *nn.Sparse

	// coCount holds the raw co-occurrence counts keyed by
	// (tower, segment), the explicit feature of Eq. 8.
	coCount map[coKey]float64
	maxCo   float64

	// mergedTriples holds the union of all relation edges before
	// normalization, kept for the homogeneous-GNN ablation.
	mergedTriples []nn.Triple

	// topCo maps each tower to its road segments sorted by descending
	// co-occurrence count — the knowledge that lets LHMM propose
	// relevant-but-far candidate roads.
	topCo map[cellular.TowerID][]roadnet.SegmentID
}

type coKey struct {
	tower cellular.TowerID
	seg   roadnet.SegmentID
}

// NumNodes returns the total node count |𝒱|.
func (g *Graph) NumNodes() int { return g.NumTowers + g.NumSegs }

// TowerNode maps a tower id to its global node index.
func (g *Graph) TowerNode(id cellular.TowerID) int { return int(id) }

// SegNode maps a segment id to its global node index.
func (g *Graph) SegNode(id roadnet.SegmentID) int { return g.NumTowers + int(id) }

// CoOccurrence returns the raw co-occurrence count between a tower and
// a segment observed in the training trips.
func (g *Graph) CoOccurrence(t cellular.TowerID, s roadnet.SegmentID) float64 {
	return g.coCount[coKey{t, s}]
}

// CoOccurrenceNorm returns the co-occurrence count normalized to [0,1]
// by the maximum observed count — the batch-normalized explicit feature
// of Eq. 8.
func (g *Graph) CoOccurrenceNorm(t cellular.TowerID, s roadnet.SegmentID) float64 {
	if g.maxCo == 0 {
		return 0
	}
	return g.coCount[coKey{t, s}] / g.maxCo
}

// TopCoRoads returns up to k road segments most frequently co-occurring
// with the tower in the training data, by descending count.
func (g *Graph) TopCoRoads(t cellular.TowerID, k int) []roadnet.SegmentID {
	segs := g.topCo[t]
	if k > len(segs) {
		k = len(segs)
	}
	return segs[:k]
}

// BuildGraph constructs the multi-relational graph from the road
// network, tower network, and historical (training) trips with ground
// truth:
//
//   - CO: for each road segment e on a trip's traveled path, the
//     trajectory point whose tower is closest to e co-occurs with e
//     (weight = number of such observations across trips). Edges are
//     added in both directions so towers and roads exchange messages.
//   - SQ: consecutive trajectory points' towers are linked (both
//     directions, weighted by frequency).
//   - TP: road segments adjacent on the network (e_i.To == e_j.From)
//     are linked.
func BuildGraph(net *roadnet.Network, cells *cellular.Net, trips []*traj.Trip) (*Graph, error) {
	if net == nil || cells == nil {
		return nil, fmt.Errorf("mrg: nil network")
	}
	g := &Graph{
		NumTowers: cells.NumTowers(),
		NumSegs:   net.NumSegments(),
		coCount:   make(map[coKey]float64),
	}
	n := g.NumNodes()

	var coTriples, sqTriples, tpTriples []nn.Triple

	// CO and SQ from trips.
	sqCount := make(map[[2]cellular.TowerID]float64)
	for _, tr := range trips {
		if len(tr.Cell) == 0 {
			continue
		}
		for _, sid := range tr.Path {
			seg := net.Segment(sid)
			mid := seg.Midpoint()
			// Closest trajectory point (by its tower position) to e.
			best, bestD := -1, math.Inf(1)
			for i, cp := range tr.Cell {
				if d := cells.Tower(cp.Tower).P.DistSq(mid); d < bestD {
					best, bestD = i, d
				}
			}
			if best >= 0 {
				g.coCount[coKey{tr.Cell[best].Tower, sid}]++
			}
		}
		for i := 1; i < len(tr.Cell); i++ {
			a, b := tr.Cell[i-1].Tower, tr.Cell[i].Tower
			if a == b {
				continue
			}
			sqCount[[2]cellular.TowerID{a, b}]++
		}
	}
	for k, w := range g.coCount {
		if w > g.maxCo {
			g.maxCo = w
		}
		tn, sn := g.TowerNode(k.tower), g.SegNode(k.seg)
		coTriples = append(coTriples,
			nn.Triple{Row: tn, Col: sn, Val: w},
			nn.Triple{Row: sn, Col: tn, Val: w},
		)
	}
	for k, w := range sqCount {
		a, b := g.TowerNode(k[0]), g.TowerNode(k[1])
		sqTriples = append(sqTriples,
			nn.Triple{Row: a, Col: b, Val: w},
			nn.Triple{Row: b, Col: a, Val: w},
		)
	}

	// TP from network adjacency.
	for i := 0; i < net.NumSegments(); i++ {
		sid := roadnet.SegmentID(i)
		for _, nx := range net.Next(sid) {
			if nx == sid {
				continue
			}
			tpTriples = append(tpTriples, nn.Triple{
				Row: g.SegNode(sid), Col: g.SegNode(nx), Val: 1,
			})
		}
	}

	// Per-tower co-occurring roads, by descending count.
	g.topCo = make(map[cellular.TowerID][]roadnet.SegmentID)
	for k := range g.coCount {
		g.topCo[k.tower] = append(g.topCo[k.tower], k.seg)
	}
	for tw, segs := range g.topCo {
		tw := tw
		sort.Slice(segs, func(a, b int) bool {
			ca, cb := g.coCount[coKey{tw, segs[a]}], g.coCount[coKey{tw, segs[b]}]
			if ca != cb {
				return ca > cb
			}
			return segs[a] < segs[b]
		})
	}

	g.mergedTriples = make([]nn.Triple, 0, len(coTriples)+len(sqTriples)+len(tpTriples))
	g.mergedTriples = append(g.mergedTriples, coTriples...)
	g.mergedTriples = append(g.mergedTriples, sqTriples...)
	g.mergedTriples = append(g.mergedTriples, tpTriples...)

	var err error
	if g.CO, err = nn.NewSparse(n, n, coTriples); err != nil {
		return nil, fmt.Errorf("mrg: CO: %w", err)
	}
	if g.SQ, err = nn.NewSparse(n, n, sqTriples); err != nil {
		return nil, fmt.Errorf("mrg: SQ: %w", err)
	}
	if g.TP, err = nn.NewSparse(n, n, tpTriples); err != nil {
		return nil, fmt.Errorf("mrg: TP: %w", err)
	}
	g.CO.RowNormalize()
	g.SQ.RowNormalize()
	g.TP.RowNormalize()
	return g, nil
}

// ReleaseRelations drops what only the encoder reads: the three
// relation adjacencies and the merged edge list. The co-occurrence
// counts stay, since matching reads them (CoOccurrenceNorm,
// TopCoRoads). No encoder over g may run afterwards.
func (g *Graph) ReleaseRelations() {
	g.CO, g.SQ, g.TP, g.mergedTriples = nil, nil, nil, nil
}

// Merged returns a single row-normalized adjacency combining all three
// relations — the homogeneous-GNN ablation (LHMM-H) input, which
// discards relation types.
func (g *Graph) Merged() (*nn.Sparse, error) {
	m, err := nn.NewSparse(g.NumNodes(), g.NumNodes(), g.mergedTriples)
	if err != nil {
		return nil, fmt.Errorf("mrg: merged: %w", err)
	}
	m.RowNormalize()
	return m, nil
}
