package roadnet

import (
	"container/heap"
	"slices"
)

// pqItem is a priority-queue entry for plain weighted Dijkstra
// (ShortestPathWeighted).
type pqItem struct {
	node NodeID
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPathWeighted runs an uncached Dijkstra search from one node
// to another under a caller-supplied edge weight (for example, length
// perturbed by per-trip noise to simulate realistic non-shortest
// routes). A segment whose weight is not >= 0 (negative or NaN) is
// skipped. It returns the segment sequence, the total weight, and
// whether a path exists. weight is called once for each segment out of
// each node settled before to, in settle order.
func (n *Network) ShortestPathWeighted(from, to NodeID, weight func(*Segment) float64) ([]SegmentID, float64, bool) {
	if from == to {
		return nil, 0, true
	}
	const (
		unreached uint8 = iota
		reached         // has a tentative distance and a queue entry
		settled         // popped: its distance is final
	)
	dist := make([]float64, n.NumNodes())
	parent := make([]SegmentID, n.NumNodes())
	state := make([]uint8, n.NumNodes())
	state[from] = reached
	q := &pq{{from, 0}}
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		if state[cur.node] == settled {
			continue
		}
		state[cur.node] = settled
		if cur.node == to {
			break
		}
		for _, sid := range n.Out(cur.node) {
			seg := n.Segment(sid)
			w := weight(seg)
			if !(w >= 0) {
				continue
			}
			nd := cur.dist + w
			if state[seg.To] == unreached {
				state[seg.To] = reached
			} else if !(nd < dist[seg.To]) {
				continue
			}
			dist[seg.To] = nd
			parent[seg.To] = sid
			heap.Push(q, pqItem{seg.To, nd})
		}
	}
	if state[to] != settled {
		return nil, 0, false
	}
	var rev []SegmentID
	for cur := to; cur != from; cur = n.Segment(parent[cur]).From {
		rev = append(rev, parent[cur])
	}
	slices.Reverse(rev)
	return rev, dist[to], true
}

// LargestComponent returns the node ids of the largest weakly-connected
// component (treating segments as undirected). The synthetic generator
// uses it to confine trip endpoints to the routable part of the city
// after random street removal.
func (n *Network) LargestComponent() []NodeID {
	visited := make([]bool, n.NumNodes())
	var best []NodeID
	for start := 0; start < n.NumNodes(); start++ {
		if visited[start] {
			continue
		}
		var comp []NodeID
		stack := []NodeID{NodeID(start)}
		visited[start] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, cur)
			for _, sid := range n.Out(cur) {
				if t := n.Segment(sid).To; !visited[t] {
					visited[t] = true
					stack = append(stack, t)
				}
			}
			for _, sid := range n.In(cur) {
				if f := n.Segment(sid).From; !visited[f] {
					visited[f] = true
					stack = append(stack, f)
				}
			}
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}
