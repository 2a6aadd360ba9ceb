package obs

// Bucket-interpolated quantile estimation, Prometheus
// histogram_quantile semantics: find the bucket holding the rank'th
// observation and interpolate linearly inside it, assuming uniform
// spread. The estimate's resolution is bounded by the bucket layout —
// good enough for p50/p95/p99 SLO lines, not for exact percentiles.

// bucketQuantile estimates the q-quantile (q in [0,1]) from per-bucket
// counts. counts has len(bounds)+1 entries, the last being the +Inf
// overflow. Returns 0 with no observations. A rank landing in the
// overflow bucket returns the highest finite bound (there is no upper
// edge to interpolate toward), matching Prometheus.
func bucketQuantile(bounds []float64, counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum int64
	for i, c := range counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(bounds) {
			// Overflow bucket: clamp to the largest finite bound.
			if len(bounds) == 0 {
				return 0
			}
			return bounds[len(bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = bounds[i-1]
		}
		hi := bounds[i]
		if c == 0 {
			return hi
		}
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucket/float64(c))
	}
	return bounds[len(bounds)-1]
}

// Quantile estimates the q-quantile of the observed distribution by
// linear interpolation within the bucket holding that rank. Safe on a
// nil histogram (returns 0).
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bucketQuantile(h.bounds, counts, q)
}

// Quantile estimates the q-quantile from a snapshot's bucket counts.
func (hs HistogramSnapshot) Quantile(q float64) float64 {
	return bucketQuantile(hs.Bounds, hs.Buckets, q)
}
