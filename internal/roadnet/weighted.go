package roadnet

import "slices"

// pqItem is a priority-queue entry for plain weighted Dijkstra
// (ShortestPathWeighted).
type pqItem struct {
	node NodeID
	dist float64
}

// pq is a binary min-heap of pqItems by dist. Equal distances are not
// ordered, so pop order depends on the layout: push and pop make
// exactly container/heap's sift comparisons (as keyPQ does), which keeps
// the order a trip's route and its weight calls were recorded under.
type pq []pqItem

func (q *pq) push(it pqItem) {
	h := append(*q, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(it.dist < h[p].dist) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	*q = h
}

// pop removes and returns the minimum item of a non-empty heap.
func (q *pq) pop() pqItem {
	h := *q
	n := len(h) - 1
	top, it := h[0], h[n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && h[c+1].dist < h[c].dist {
			c++
		}
		if !(h[c].dist < it.dist) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = it
	*q = h[:n]
	return top
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
	q := pq{{from, 0}}
	for len(q) > 0 {
		cur := q.pop()
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
			q.push(pqItem{seg.To, nd})
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
