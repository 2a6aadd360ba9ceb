package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	lhmm "repro"
	"repro/internal/metrics"
)

// checkPath reports why path is not a traveled path in net: empty, an
// unknown segment, or two consecutive segments that do not share a
// node.
func checkPath(net *lhmm.Network, path []lhmm.SegmentID) error {
	if len(path) == 0 {
		return fmt.Errorf("empty path")
	}
	for i, s := range path {
		if s < 0 || int(s) >= net.NumSegments() {
			return fmt.Errorf("path[%d] = %d is not a segment of the network", i, s)
		}
		if i > 0 && net.Segment(path[i-1]).To != net.Segment(s).From {
			return fmt.Errorf("path[%d] = %d does not start where path[%d] = %d ends", i, s, i-1, path[i-1])
		}
	}
	return nil
}

// checker holds the output checks of one workload run: every result is
// checked against its input as it arrives, and the first path seen for
// a trip is the reference every repeat of that trip must equal.
type checker struct {
	net *lhmm.Network

	mu     sync.Mutex
	paths  map[int][]lhmm.SegmentID // trip ID -> first path seen
	trips  map[int]*lhmm.Trip
	errors []string
}

func newChecker(net *lhmm.Network) *checker {
	return &checker{net: net, paths: map[int][]lhmm.SegmentID{}, trips: map[int]*lhmm.Trip{}}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.errors) < 20 { // enough to diagnose; a broken run repeats itself
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
}

// result checks one matched trip: one match per input point, a
// connected non-empty path, and the same path as every earlier match
// of the trip.
func (c *checker) result(trip *lhmm.Trip, matched int, path []lhmm.SegmentID) {
	if matched != len(trip.Cell) {
		c.fail("trip %d: %d matched points for %d input points", trip.ID, matched, len(trip.Cell))
	}
	if err := checkPath(c.net, path); err != nil {
		c.fail("trip %d: %v", trip.ID, err)
	}
	c.mu.Lock()
	first, seen := c.paths[trip.ID]
	if !seen {
		c.paths[trip.ID] = append([]lhmm.SegmentID(nil), path...)
		c.trips[trip.ID] = trip
	}
	c.mu.Unlock()
	if seen && !equalPaths(first, path) {
		c.fail("trip %d: a repeat produced another path (%d vs %d segments)", trip.ID, len(path), len(first))
	}
}

func equalPaths(a, b []lhmm.SegmentID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// accuracy returns the mean path precision and recall against ground
// truth (corridor 50 m) over the trips seen, and a SHA-256 over their
// paths in trip order. The digest is information for comparing two
// commits, not a metric.
func (c *checker) accuracy() (precision, recall float64, digest string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, 0, len(c.paths))
	for id := range c.paths {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	var word [8]byte
	for _, id := range ids {
		pm := metrics.EvalPath(c.net, c.paths[id], c.trips[id].Path, 50)
		precision += pm.Precision
		recall += pm.Recall
		binary.LittleEndian.PutUint64(word[:], uint64(id))
		h.Write(word[:])
		for _, s := range c.paths[id] {
			binary.LittleEndian.PutUint64(word[:], uint64(s))
			h.Write(word[:])
		}
	}
	if n := float64(len(ids)); n > 0 {
		precision /= n
		recall /= n
	}
	return precision, recall, hex.EncodeToString(h.Sum(nil))
}
