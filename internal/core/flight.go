package core

import (
	"context"
	"sync"

	"spaceodyssey/internal/simdisk"
)

// flightGroup single-flights function calls per key: the first caller for a
// key (the leader) runs fn; callers arriving while it runs attach — they
// block until the leader finishes and share its error instead of running fn
// again. Calls for distinct keys proceed independently. The engine keeps two:
// one keyed by ComboKey, so concurrent merge triggers for one combination —
// racing synchronous queries past the threshold, or the scheduler's task
// racing a direct caller — share one merge step instead of queueing repeated
// exclusive steps for the same work; and one keyed by dataset, so a cold
// dataset's level-0 build runs once while every other query of it waits on
// the flight rather than herding on the tree's exclusive lock.
//
// Do must not be re-entered for the same key from inside fn (the leader
// would wait on itself).
type flightGroup[K comparable] struct {
	mu       sync.Mutex
	inflight map[K]*flightCall
}

// flightCall is one in-flight leader execution.
type flightCall struct {
	done chan struct{}
	err  error
}

// Do runs fn under single-flight per key. It reports whether this call
// attached to another caller's execution (true) or led its own (false),
// along with the shared error. An attached caller whose ctx is canceled
// stops waiting and returns the cancellation error instead; the leader is
// not affected, and fn itself is never interrupted by Do.
func (g *flightGroup[K]) Do(ctx context.Context, key K, fn func() error) (bool, error) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[K]*flightCall)
	}
	if c, ok := g.inflight[key]; ok {
		g.mu.Unlock()
		if err := simdisk.WaitDone(ctx, c.done); err != nil {
			return true, err
		}
		return true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.inflight[key] = c
	g.mu.Unlock()

	c.err = fn()

	g.mu.Lock()
	delete(g.inflight, key)
	g.mu.Unlock()
	close(c.done)
	return false, c.err
}
