package workload

import (
	"fmt"

	"spaceodyssey/internal/object"
)

// Combinations enumerates all k-element subsets of datasets 0..n-1 in
// lexicographic order. It panics when k is outside [1, n]; for the paper's
// n = 10 the largest result (k = 5) has 252 entries.
func Combinations(n, k int) [][]object.DatasetID {
	if k < 1 || k > n {
		panic(fmt.Sprintf("workload: combinations k=%d outside [1,%d]", k, n))
	}
	var out [][]object.DatasetID
	cur := make([]object.DatasetID, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			out = append(out, append([]object.DatasetID(nil), cur...))
			return
		}
		// Prune: need k-len(cur) more elements from [start, n).
		for i := start; i <= n-(k-len(cur)); i++ {
			cur = append(cur, object.DatasetID(i))
			rec(i + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
