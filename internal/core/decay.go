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

// heatScore keys an entry whose effective heat is eff as of tick t.
func heatScore(eff float64, tick int64, halfLife float64) float64 {
	return math.Log2(eff) + float64(tick)/halfLife
}

// effectiveHeat decodes the decayed access count at tick t. Scores far in
// the past underflow toward 0 — fully cooled, as intended.
func effectiveHeat(score float64, tick int64, halfLife float64) float64 {
	return math.Exp2(score - float64(tick)/halfLife)
}

// bumpScore adds one fresh demand at tick t to an existing score: the old
// heat decayed to now, plus one.
func bumpScore(score float64, tick int64, halfLife float64) float64 {
	return heatScore(effectiveHeat(score, tick, halfLife)+1, tick, halfLife)
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
