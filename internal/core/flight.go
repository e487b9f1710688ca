package core

import (
	"context"
	"sync"

	"spaceodyssey/internal/simdisk"
)

// flightGroup single-flights function calls per key: the first caller for a
// key (the leader) runs fn; callers arriving while it runs attach — they
// block until the leader finishes and share its value and error instead of
// running fn again. Calls for distinct keys proceed independently. It is the
// one single-flight of the stack, and the engine keeps three: merge steps
// keyed by ComboKey, so concurrent triggers for one combination — racing
// synchronous queries past the threshold, or the scheduler's task racing a
// direct caller — share one step instead of queueing repeated exclusive
// steps for the same work; level-0 builds keyed by dataset, so a cold
// dataset is built once while every other query of it waits on the flight
// rather than herding on the tree's exclusive lock; and cell reads keyed by
// (dataset, cell, layout epoch), the scan sharing of Config.ShareScans.
//
// A flight lives only while fn runs — this is not a cache — and is
// deregistered before its outcome is published, so a waiter that finds the
// leader failed and calls Do again leads (or attaches to) a fresh flight,
// never the dead one. Do must not be re-entered for the same key from inside
// fn (the leader would wait on itself).
//
// A flight nobody waits on allocates nothing: its record comes from the
// group's free list, and the channel a waiter blocks on is made by the first
// waiter, under mu. A leader that deregisters its record with no channel on
// it — nobody attached, and nobody can any more — puts the record back on
// the free list; a record someone waited on is left to the collector, since
// a waiter may still read it.
type flightGroup[K comparable, V any] struct {
	mu       sync.Mutex
	inflight map[K]*flightCall[V]
	free     *flightCall[V] // records no waiter ever saw, linked by next
}

// flightCall is one in-flight leader execution. The leader fills val and err
// before closing done; attached callers treat val as read-only. done and
// next are guarded by the group's mu.
type flightCall[V any] struct {
	done chan struct{} // nil until the first waiter attaches
	val  V
	err  error
	next *flightCall[V]
}

// Do runs fn under single-flight per key. It reports whether this call
// attached to another caller's execution (true) or led its own (false),
// along with the shared value and error. An attached caller whose ctx is
// canceled stops waiting and returns the cancellation error instead; the
// leader is not affected, and fn itself is never interrupted by Do.
func (g *flightGroup[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, bool, error) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[K]*flightCall[V])
	}
	if c, ok := g.inflight[key]; ok {
		if c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		g.mu.Unlock()
		if err := simdisk.WaitDone(ctx, done); err != nil {
			var zero V
			return zero, true, err
		}
		return c.val, true, c.err
	}
	c := g.free
	if c != nil {
		g.free, c.next = c.next, nil
	} else {
		c = new(flightCall[V])
	}
	g.inflight[key] = c
	g.mu.Unlock()

	val, err := fn()

	g.mu.Lock()
	delete(g.inflight, key)
	done := c.done
	if done == nil {
		c.next, g.free = g.free, c
	} else {
		c.val, c.err = val, err
	}
	g.mu.Unlock()
	if done != nil {
		close(done)
	}
	return val, false, err
}
