package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	odyssey "spaceodyssey"
	"spaceodyssey/internal/object"
)

// result is what one run of one workload reports.
type result struct {
	workload  string
	values    map[string]float64 // the metrics the run owes (end-to-end or per-layer)
	extra     map[string]float64 // untraced runs: steady-state simulated figures, printed but not gated
	info      map[string]any     // pass counts, sample counts, preset gaps
	attempted int64
	failed    int64
	problems  []string // first few mismatches, errors and broken invariants
	broken    bool     // an invariant of the benchmark itself failed
}

func newResult(workload string) *result {
	return &result{
		workload: workload,
		values:   map[string]float64{},
		extra:    map[string]float64{},
		info:     map[string]any{},
	}
}

func (r *result) correct() bool { return r.failed == 0 && !r.broken && r.attempted > 0 }

const maxProblems = 5

func (r *result) problem(format string, args ...any) {
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// invariant records a failed self-check of the benchmark: the run is then
// not correct, whatever the replies were.
func (r *result) invariant(ok bool, format string, args ...any) {
	if !ok {
		r.broken = true
		r.problem(format, args...)
	}
}

// lane is one client's private measurement state. Clients never share a
// lane, so the timed loop takes no lock and allocates nothing.
type lane struct {
	lat       []uint32 // per-query latency, ns
	wait      []uint32 // dispatcher queue wait, ns (traced public runs)
	exec      []uint32 // time inside Explorer.QueryCtx, ns (traced public runs)
	simNs     []int64  // per-query simulated latency (traced public runs)
	attempted int64
	failed    int64
	problems  []string
}

func (l *lane) fail(format string, args ...any) {
	l.failed++
	if len(l.problems) < maxProblems {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

// check compares one reply with the oracle.
func (l *lane) check(s *stream, pos int, d int32, objs []object.Object, err error) {
	l.attempted++
	if err != nil {
		l.fail("%s query %d: %v", s.name, pos, err)
		return
	}
	if got := fingerprintOf(objs); got != s.want[d] {
		l.fail("%s query %d: %d objects (fingerprint %x), oracle %d (%x)",
			s.name, pos, got.n, got.sum, s.want[d].n, s.want[d].sum)
	}
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

// lanes is the measurement state of all clients of a workload.
type lanes []*lane

// newLanes makes one lane per client. withSim adds room for per-query
// simulated latencies, withDispatch for the dispatcher's wait and execution
// times.
func newLanes(clients, capacity int, withSim, withDispatch bool) lanes {
	ls := make(lanes, clients)
	for i := range ls {
		ls[i] = &lane{lat: make([]uint32, 0, capacity)}
		if withSim {
			ls[i].simNs = make([]int64, 0, capacity)
		}
		if withDispatch {
			ls[i].wait = make([]uint32, 0, capacity)
			ls[i].exec = make([]uint32, 0, capacity)
		}
	}
	return ls
}

func (ls lanes) pooled(pick func(*lane) []uint32) []uint32 {
	var all []uint32
	for _, l := range ls {
		all = append(all, pick(l)...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// marks returns how many latencies each lane holds now.
func (ls lanes) marks() []int {
	m := make([]int, len(ls))
	for i, l := range ls {
		m[i] = len(l.lat)
	}
	return m
}

// pooledSince returns, ascending, the latencies the lanes gained since marks.
func (ls lanes) pooledSince(marks []int) []uint32 {
	var all []uint32
	for i, l := range ls {
		all = append(all, l.lat[marks[i]:]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// into folds the lanes' verdicts into the result.
func (ls lanes) into(r *result) {
	for _, l := range ls {
		r.attempted += l.attempted
		r.failed += l.failed
		for _, p := range l.problems {
			r.problem("%s", p)
		}
	}
}

// percentile of an ascending slice, nearest rank.
func percentile[T uint32 | int64 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var t float64
	for _, v := range vs {
		t += v
	}
	return t / float64(len(vs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// allocMeter accumulates heap allocation over the timed stretches of a run.
type allocMeter struct {
	mallocs, bytes uint64
	m0             runtime.MemStats
}

func (a *allocMeter) start() { runtime.ReadMemStats(&a.m0) }

func (a *allocMeter) stop() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	a.mallocs += m.Mallocs - a.m0.Mallocs
	a.bytes += m.TotalAlloc - a.m0.TotalAlloc
}

// heapAfterGC returns the live heap in bytes after a full collection.
func heapAfterGC() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// runClients runs fn once per client, concurrently, and waits for all.
func runClients(clients int, fn func(c int)) {
	if clients == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// spacePages returns the pages of the three kinds of file an Explorer keeps.
func spacePages(ex *odyssey.Explorer, datasets int) (raw, tree, merge int64) {
	for d := 0; d < datasets; d++ {
		id := object.DatasetID(d)
		if info, err := ex.Dataset(id); err == nil {
			raw += info.RawPages
		}
		if t := ex.Engine().Tree(id); t != nil {
			if n, err := t.File().NumPages(); err == nil {
				tree += n
			}
		}
	}
	return raw, tree, ex.MergeSpacePages()
}

func spaceAmp(ex *odyssey.Explorer, datasets int) float64 {
	raw, tree, merge := spacePages(ex, datasets)
	return ratio(float64(raw+tree+merge), float64(raw))
}
