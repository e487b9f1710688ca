package core

import (
	"container/heap"
	"context"
	"sync"

	"spaceodyssey/internal/geom"
	"spaceodyssey/internal/object"
	"spaceodyssey/internal/octree"
	"spaceodyssey/internal/simdisk"
)

// MaintenanceStats counts the background maintenance pipeline's activity.
// All counters are lifetime totals; the ledger balances as
// Queued == Completed + Failed + Dropped once the pipeline is closed.
type MaintenanceStats struct {
	// Queued is how many tasks (refinement + merge) were accepted onto the
	// queues.
	Queued int64
	// Coalesced is how many enqueue attempts were absorbed by an
	// already-pending task for the same partition or combination — work the
	// pipeline never had to do because duplicates folded together.
	Coalesced int64
	// Completed is how many tasks executed to completion.
	Completed int64
	// Failed is how many tasks returned an error (the layout stays
	// consistent — a failed task simply leaves its region unconverged until
	// the next query that wants the work enqueues it again).
	Failed int64
	// Dropped is how many queued tasks Close discarded (cancel-and-drain).
	Dropped int64
	// RefineTasks and MergeTasks split Completed by kind.
	RefineTasks int64
	MergeTasks  int64
	// Refinements is how many refinement operations maintenance applied.
	Refinements int64
	// QueueDepth is the current number of queued (not yet running) tasks.
	QueueDepth int
	// QueueDepthHighWater is the deepest the queue has ever been — the
	// backlog a sizing exercise has to plan for.
	QueueDepthHighWater int
}

// refineTask asks for one partition of one dataset to be refined to
// convergence for the query window that demanded it. members is the
// demanding query's (sorted) combination: the worker re-checks the
// combination's merge-file coverage before each step, so a partition a
// concurrent merge covered in the meantime is not refined (§3.2.2's
// merged-partitions-are-not-refined rule holds across the async gap).
type refineTask struct {
	key     octree.Key
	box     geom.Box
	qVol    float64
	members []object.DatasetID
}

// mergeTask asks for one combination's merge step to run.
type mergeTask struct {
	key     ComboKey
	members []object.DatasetID
}

// heatItem is one queued maintenance task with its scheduling state: heat
// is the region's access count (1 for the demanding query plus one per
// coalesced duplicate demand), seq breaks heat ties FIFO. The maintenance
// queues are max-heaps on (heat, -seq), so the hottest region's work runs
// first — under backlog, the partitions concurrent traffic keeps hitting
// converge before cold stragglers. With Config.HeatHalfLife set, score is
// the log-space decayed-heat key (see decay.go) and takes precedence; it
// stays 0 with decay off, restoring the exact legacy order.
type heatItem[T any] struct {
	task  T
	heat  int64
	score float64 // decayed-heat key; 0 unless decay is on
	seq   int64
	index int // position in its heap, maintained by the heap interface
}

// heatHeap is a max-heap of maintenance tasks by (decayed heat, FIFO).
type heatHeap[T any] []*heatItem[T]

func (h heatHeap[T]) Len() int           { return len(h) }
func (h heatHeap[T]) Less(i, j int) bool { return hotter(h[i], h[j]) }
func (h heatHeap[T]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *heatHeap[T]) Push(x any) {
	it := x.(*heatItem[T])
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *heatHeap[T]) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}

// maintainer is the background maintenance scheduler behind
// Config.AsyncMaintenance: queries enqueue coalescing refinement and merge
// tasks instead of mutating the layout inline, and a bounded worker pool
// drains them — refinement concurrently across datasets (one writer per
// dataset, preserved by taking that dataset's tree lock exclusively), the
// merge step for a combination only once its member datasets have no
// refinement work queued or running, so merges see converged trees.
//
// Synchronization: mu guards every queue, the coalescing maps, the active
// sets and the statistics; cond wakes workers when work arrives or gating
// state changes; idle is the broadcast channel Quiesce waits on (closed
// whenever the pipeline has neither queued nor in-flight work, replaced
// with a fresh channel when work arrives). Task execution itself runs
// outside mu under the engine's own locks.
type maintainer struct {
	o       *Odyssey
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	paused bool // tests freeze the pipeline to observe queue state

	refineQ       map[object.DatasetID]*heatHeap[refineTask]
	refinePending map[object.DatasetID]map[octree.Key]*heatItem[refineTask]
	activeRefine  map[object.DatasetID]bool

	mergeQ       heatHeap[mergeTask]
	mergePending map[ComboKey]*heatItem[mergeTask]
	activeMerge  map[ComboKey]bool

	seq      int64   // FIFO tiebreak for equal-heat tasks
	halfLife float64 // heat half-life in queries; 0 = no decay
	queueLen int
	inFlight int
	stats    MaintenanceStats
	lastErr  error // the most recent task error

	idleNow bool
	idle    chan struct{}

	wg sync.WaitGroup
}

// newMaintainer starts the pipeline with the given worker-pool size
// (<= 0 defaults to 2 — enough to overlap refinement across datasets with
// a concurrent merge without competing with query-serving goroutines for
// the machine).
func newMaintainer(o *Odyssey, workers int) *maintainer {
	if workers <= 0 {
		workers = 2
	}
	m := &maintainer{
		o:             o,
		workers:       workers,
		halfLife:      o.halfLife,
		refineQ:       make(map[object.DatasetID]*heatHeap[refineTask]),
		refinePending: make(map[object.DatasetID]map[octree.Key]*heatItem[refineTask]),
		activeRefine:  make(map[object.DatasetID]bool),
		mergePending:  make(map[ComboKey]*heatItem[mergeTask]),
		activeMerge:   make(map[ComboKey]bool),
		idleNow:       true,
		idle:          make(chan struct{}),
	}
	close(m.idle) // idle at birth
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// noteWorkLocked records a newly queued task: high-water tracking and
// re-arming the idle channel.
func (m *maintainer) noteWorkLocked() {
	m.queueLen++
	m.stats.Queued++
	if m.queueLen > m.stats.QueueDepthHighWater {
		m.stats.QueueDepthHighWater = m.queueLen
	}
	if m.idleNow {
		m.idle = make(chan struct{})
		m.idleNow = false
	}
}

// maybeIdleLocked closes the idle channel when nothing is queued or running.
func (m *maintainer) maybeIdleLocked() {
	if !m.idleNow && m.queueLen == 0 && m.inFlight == 0 {
		close(m.idle)
		m.idleNow = true
	}
}

// EnqueueRefine schedules the given partitions of one dataset for
// background refinement, coalescing keys that already have a task pending —
// a coalesced demand bumps the pending task's heat, moving the region up
// the priority heap. box and qVol describe the query that demanded the
// refinement (the worker refines the region to convergence for that
// demand); members is that query's combination, for the worker's
// merge-coverage re-check.
func (m *maintainer) EnqueueRefine(ds object.DatasetID, keys []octree.Key, box geom.Box, qVol float64, members []object.DatasetID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	pend := m.refinePending[ds]
	if pend == nil {
		pend = make(map[octree.Key]*heatItem[refineTask])
		m.refinePending[ds] = pend
	}
	h := m.refineQ[ds]
	if h == nil {
		h = &heatHeap[refineTask]{}
		m.refineQ[ds] = h
	}
	// Defensive copy, like EnqueueMerge: the tasks outlive the call and a
	// caller reusing its slice must not corrupt the coverage re-check.
	members = append([]object.DatasetID(nil), members...)
	added := false
	for _, k := range keys {
		if it := pend[k]; it != nil {
			m.stats.Coalesced++
			it.heat++
			if m.halfLife > 0 {
				it.score = bumpScore(it.score, m.o.heatTick.Load(), m.halfLife)
			}
			heap.Fix(h, it.index)
			continue
		}
		m.seq++
		it := &heatItem[refineTask]{
			task:  refineTask{key: k, box: box, qVol: qVol, members: members},
			heat:  1,
			score: m.freshScore(),
			seq:   m.seq,
		}
		pend[k] = it
		heap.Push(h, it)
		m.noteWorkLocked()
		added = true
	}
	if added {
		m.cond.Broadcast()
	}
}

// freshScore keys a newly queued task: one demand as of the current query
// tick (0 — the legacy ordering — when decay is off).
func (m *maintainer) freshScore() float64 {
	if m.halfLife <= 0 {
		return 0
	}
	return newScore(m.o.heatTick.Load(), m.halfLife)
}

// EnqueueMerge schedules one combination's merge step, coalescing with (and
// heating up) a pending task for the same combination.
func (m *maintainer) EnqueueMerge(key ComboKey, members []object.DatasetID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if it := m.mergePending[key]; it != nil {
		m.stats.Coalesced++
		it.heat++
		if m.halfLife > 0 {
			it.score = bumpScore(it.score, m.o.heatTick.Load(), m.halfLife)
		}
		heap.Fix(&m.mergeQ, it.index)
		return
	}
	m.seq++
	it := &heatItem[mergeTask]{
		task:  mergeTask{key: key, members: append([]object.DatasetID(nil), members...)},
		heat:  1,
		score: m.freshScore(),
		seq:   m.seq,
	}
	m.mergePending[key] = it
	heap.Push(&m.mergeQ, it)
	m.noteWorkLocked()
	m.cond.Broadcast()
}

// execTask is one unit of work a worker picked off the queues.
type execTask struct {
	isMerge bool
	ds      object.DatasetID // refine
	refine  refineTask       // refine
	merge   mergeTask        // merge
}

// membersBusyLocked reports whether any member dataset still has refinement
// work queued or running — the gate that makes the merge step a separate
// stage ordered after refinement.
func (m *maintainer) membersBusyLocked(members []object.DatasetID) bool {
	for _, ds := range members {
		if m.activeRefine[ds] || (m.refineQ[ds] != nil && m.refineQ[ds].Len() > 0) {
			return true
		}
	}
	return false
}

// pickLocked claims the next runnable task, hottest region first: among the
// datasets without an active refinement (one writer per dataset — but
// different datasets refine concurrently), the one whose top task has the
// highest access count wins; then the hottest merge whose combination is
// single-flight and whose members are refinement-quiescent. Heat-ties break
// FIFO, so the priority queue degrades to the old arrival order when every
// region is equally hot.
func (m *maintainer) pickLocked() (execTask, bool) {
	if m.paused {
		return execTask{}, false
	}
	var bestDS object.DatasetID
	var bestH *heatHeap[refineTask]
	for ds, h := range m.refineQ {
		if h.Len() == 0 || m.activeRefine[ds] {
			continue
		}
		top := (*h)[0]
		if bestH == nil || hotter(top, (*bestH)[0]) {
			bestDS, bestH = ds, h
		}
	}
	if bestH != nil {
		it := heap.Pop(bestH).(*heatItem[refineTask])
		delete(m.refinePending[bestDS], it.task.key)
		m.activeRefine[bestDS] = true
		m.queueLen--
		m.stats.QueueDepth = m.queueLen
		return execTask{ds: bestDS, refine: it.task}, true
	}
	// The heap orders merges by heat, but gating (active members, pending
	// refinements) can veto the top — scan for the hottest runnable one.
	var best *heatItem[mergeTask]
	for _, it := range m.mergeQ {
		if m.activeMerge[it.task.key] || m.membersBusyLocked(it.task.members) {
			continue
		}
		if best == nil || hotter(it, best) {
			best = it
		}
	}
	if best != nil {
		heap.Remove(&m.mergeQ, best.index)
		delete(m.mergePending, best.task.key)
		m.activeMerge[best.task.key] = true
		m.queueLen--
		m.stats.QueueDepth = m.queueLen
		return execTask{isMerge: true, merge: best.task}, true
	}
	return execTask{}, false
}

// worker drains tasks until Close. Completion of any task re-broadcasts:
// finishing the last refinement of a dataset can make a gated merge
// runnable for a sibling worker.
func (m *maintainer) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		task, ok := m.pickLocked()
		for !ok && !m.closed {
			m.cond.Wait()
			task, ok = m.pickLocked()
		}
		if !ok { // closed with nothing runnable
			m.mu.Unlock()
			return
		}
		m.inFlight++
		m.mu.Unlock()

		var refined int
		var err error
		if task.isMerge {
			err = m.o.runMergeTask(task.merge)
		} else {
			refined, err = m.o.runRefineTask(task.ds, task.refine)
		}

		m.mu.Lock()
		m.inFlight--
		if task.isMerge {
			delete(m.activeMerge, task.merge.key)
		} else {
			delete(m.activeRefine, task.ds)
		}
		if err != nil {
			m.stats.Failed++
			m.lastErr = err
		} else {
			m.stats.Completed++
			if task.isMerge {
				m.stats.MergeTasks++
			} else {
				m.stats.RefineTasks++
			}
		}
		m.stats.Refinements += int64(refined)
		m.maybeIdleLocked()
		m.cond.Broadcast()
	}
}

// PruneCoveredRefines drops pending refinement tasks whose cell a merge
// publish now covers for the demanding combination. The worker would skip
// them anyway (runRefineTask re-checks coverage before every step), so this
// is behavior-identical — but without it the heat ledger keeps entries for
// merged cells alive until a worker gets around to each one, and after a
// hotspot migration that dead backlog can dominate the heap. Called after
// every layout-epoch bump from a merge publish; prunes count as Dropped.
//
// covered is evaluated with no maintainer lock held (it takes the engine's
// shared layout lock); candidates that were picked up or re-enqueued in the
// meantime are left alone via pointer identity.
func (m *maintainer) PruneCoveredRefines(covered func(ds object.DatasetID, t refineTask) bool) int {
	type cand struct {
		ds object.DatasetID
		it *heatItem[refineTask]
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0
	}
	var cands []cand
	for ds, pend := range m.refinePending {
		for _, it := range pend {
			cands = append(cands, cand{ds: ds, it: it})
		}
	}
	m.mu.Unlock()
	if len(cands) == 0 {
		return 0
	}
	dead := cands[:0]
	for _, c := range cands {
		if covered(c.ds, c.it.task) {
			dead = append(dead, c)
		}
	}
	if len(dead) == 0 {
		return 0
	}
	m.mu.Lock()
	pruned := 0
	for _, c := range dead {
		pend := m.refinePending[c.ds]
		if pend == nil || pend[c.it.task.key] != c.it {
			continue // picked up or replaced since the snapshot
		}
		heap.Remove(m.refineQ[c.ds], c.it.index)
		delete(pend, c.it.task.key)
		m.queueLen--
		m.stats.QueueDepth = m.queueLen
		m.stats.Dropped++
		pruned++
	}
	if pruned > 0 {
		m.maybeIdleLocked()
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	return pruned
}

// Stats snapshots the pipeline counters.
func (m *maintainer) Stats() MaintenanceStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.QueueDepth = m.queueLen
	return s
}

// Err returns the most recent task error (nil when every task succeeded so
// far).
func (m *maintainer) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastErr
}

// SetPaused freezes (true) or thaws (false) task pickup; queued work stays
// queued while paused. Tests use it to observe coalescing deterministically.
func (m *maintainer) SetPaused(paused bool) {
	m.mu.Lock()
	m.paused = paused
	m.mu.Unlock()
	m.cond.Broadcast()
}

// Quiesce blocks until the pipeline has no queued or running tasks — the
// point where the layout has absorbed every scheduled mutation. Returns
// early with a cancellation error when ctx expires first.
func (m *maintainer) Quiesce(ctx context.Context) error {
	m.mu.Lock()
	ch := m.idle
	m.mu.Unlock()
	return simdisk.WaitDone(ctx, ch)
}

// Close cancels-and-drains the pipeline: queued tasks are dropped (counted
// in Stats().Dropped), in-flight tasks run to completion — layout mutations
// are never interrupted mid-way — and every worker goroutine exits before
// Close returns. Safe to call more than once.
func (m *maintainer) Close() {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		m.stats.Dropped += int64(m.queueLen)
		m.queueLen = 0
		m.stats.QueueDepth = 0
		m.refineQ = make(map[object.DatasetID]*heatHeap[refineTask])
		m.refinePending = make(map[object.DatasetID]map[octree.Key]*heatItem[refineTask])
		m.mergeQ = nil
		m.mergePending = make(map[ComboKey]*heatItem[mergeTask])
		m.paused = false // a paused pipeline must still wind down
		m.maybeIdleLocked()
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
}
