package core

import "math"

// Heat decay (Config.HeatHalfLife): the heat ledgers — maintenance task
// priority and result-cache eviction order — historically accumulate
// forever, so a hotspot that migrated away keeps its cache entries pinned
// and its maintenance priority inflated. With a half-life h (in queries),
// every accumulated access count halves every h queries, applied lazily on
// read: no background rescans, no per-entry timers.
//
// The trick that keeps the decayed ordering heap-safe is working in log
// space. An entry whose effective (decayed) heat is `eff` as of logical
// tick t is keyed by
//
//	score = log2(eff) + t/h
//
// Between touches eff decays as eff·2^-(Δt/h), which adds -Δt/h to the
// log2 term and +Δt/h to the t/h term — the score is CONSTANT while the
// entry is untouched, and comparing two scores at any later tick compares
// their decayed heats exactly. So the heap never needs rescoring: only the
// touched entry's key changes, and container/heap.Fix repositions it — at
// once in the maintenance queues, not before the next eviction in the result
// cache, whose hits only ever raise a key (see coldHeap).
//
// A zero half-life disables decay; entries then carry score 0 and the
// heaps fall back to the exact legacy (heat, FIFO) ordering bit for bit.

// newScore keys an entry of one demand as of tick t: log2(1) + t/h.
func newScore(tick int64, halfLife float64) float64 {
	return float64(tick) / halfLife
}

// bumpScore adds one fresh demand at tick t to an existing score: the old
// heat decayed to now, plus one. With x = score − t/h the old heat is 2^x, so
// the new score is t/h + log2(1 + 2^x) = t/h + max(x, 0) + log2(1 + 2^-|x|)
// — the softplus of x, read from bumpTable instead of computed with an
// exponential and a logarithm on every hit.
//
// The result is never below score and is monotone non-decreasing in it: each
// step — x, the interpolation, the sum, the max — is a rounded operation that
// preserves order, and the table rises. That keeps the result cache's lazy
// eviction heap exact: since a hit never lowers an entry's key, the key the
// heap last placed the entry by stays a lower bound of its live key, which is
// all the heap's repair-on-evict needs (see coldHeap). Two entries bumped at
// one tick keep the order they had; against any other score a bumped entry
// lands within 2^-20 of where the exact formula puts it.
func bumpScore(score float64, tick int64, halfLife float64) float64 {
	now := float64(tick) / halfLife
	return max(now+softplus2(score-now), score)
}

// The table behind bumpScore holds log2(1 + 2^x) at bumpStep-spaced points of
// [-bumpSpan, bumpSpan], and softplus2 interpolates linearly between them.
// The function is convex with curvature at most ln2/4, so the interpolation
// overshoots it by at most bumpStep²·ln2/32 ≈ 3.3e-7; past the span it is
// within log2(1 + 2^-bumpSpan) ≈ 6.9e-7 of 0 (below) or of x (above). Either
// way a bump is within 2^-20 ≈ 9.5e-7 of the exact formula, a relative error
// in the decoded heat of under 10^-6 — far below one hit.
const (
	bumpSpan  = 21
	bumpSteps = 256 // table points per unit of x: bumpStep = 1/256
)

// bumpTable is built once. It has one point past the span, equal to the last,
// so that an x rounding onto the span's end still reads two points.
var bumpTable = func() *[2*bumpSpan*bumpSteps + 2]float64 {
	var t [2*bumpSpan*bumpSteps + 2]float64
	for i := range len(t) - 1 {
		x := float64(i)/bumpSteps - bumpSpan
		t[i] = math.Log2(1 + math.Exp2(x))
	}
	t[len(t)-1] = t[len(t)-2]
	return &t
}()

// softplus2 is log2(1 + 2^x) from bumpTable: non-decreasing in x, since
// within a cell the interpolation rises with the cell fraction and never
// passes the next point (adjacent points are within a factor of two, so their
// difference is exact and the first point plus it is the next).
func softplus2(x float64) float64 {
	switch {
	case x <= -bumpSpan:
		return 0
	case x >= bumpSpan:
		return max(x, bumpTable[len(bumpTable)-1])
	}
	p := (x + bumpSpan) * bumpSteps
	i := int(p)
	lo := bumpTable[i]
	return lo + (p-float64(i))*(bumpTable[i+1]-lo)
}

// hotter orders maintenance work hottest-first under decay: score first
// (identical zeros when decay is off), then the legacy (heat desc, FIFO)
// order.
func hotter[T any](a, b *heatItem[T]) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.heat != b.heat {
		return a.heat > b.heat
	}
	return a.seq < b.seq
}
