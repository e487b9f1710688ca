package workload

import "spaceodyssey/internal/geom"

// Probes the package's tests read through. Nothing outside tests needs
// them, so they live here.

// Centroid returns the mean query center of queries[lo:hi], a cheap way to
// observe hotspot migration in tests and reports.
func Centroid(queries []Query, lo, hi int) geom.Vec {
	if lo < 0 {
		lo = 0
	}
	if hi > len(queries) {
		hi = len(queries)
	}
	if lo >= hi {
		return geom.Vec{}
	}
	var c geom.Vec
	for _, q := range queries[lo:hi] {
		mid := q.Range.Min.Add(q.Range.Max).Mul(0.5)
		c = c.Add(mid)
	}
	return c.Mul(1 / float64(hi-lo))
}
