package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightGroupSingleRun pins the single-flight contract: while a call
// for a key is in flight, concurrent Do calls for the same key attach to
// it — exactly one fn runs, and every caller observes the leader's value and
// error.
func TestFlightGroupSingleRun(t *testing.T) {
	var g flightGroup[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int64
	boom := errors.New("boom")

	go func() {
		g.Do(context.Background(), "k", func() (int, error) {
			runs.Add(1)
			close(started)
			<-release
			return 42, boom
		})
	}()
	<-started

	// The leader cannot finish until release closes, so any follower that
	// calls Do before then must attach. The barrier plus settle delay puts
	// every follower at the Do doorstep first.
	const followers = 8
	var wg sync.WaitGroup
	var ready sync.WaitGroup
	attachedCount := make(chan bool, followers)
	vals := make(chan int, followers)
	errs := make(chan error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			v, attached, err := g.Do(context.Background(), "k", func() (int, error) {
				runs.Add(1)
				return 0, nil
			})
			attachedCount <- attached
			vals <- v
			errs <- err
		}()
	}
	ready.Wait()
	time.Sleep(100 * time.Millisecond)
	close(release)
	wg.Wait()
	close(attachedCount)
	close(vals)
	close(errs)

	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want exactly 1", n)
	}
	for attached := range attachedCount {
		if !attached {
			t.Fatal("a follower reported attached=false while the leader was in flight")
		}
	}
	for v := range vals {
		if v != 42 {
			t.Fatalf("follower value = %d, want the leader's 42", v)
		}
	}
	for err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("follower error = %v, want the leader's error", err)
		}
	}
}

// TestFlightGroupReRunsAfterCompletion pins that completion clears the
// slot: a Do after the previous flight finished runs fn again rather than
// returning the stale result.
func TestFlightGroupReRunsAfterCompletion(t *testing.T) {
	var g flightGroup[int, int]
	var runs int
	for i := 0; i < 3; i++ {
		v, attached, err := g.Do(context.Background(), 7, func() (int, error) {
			runs++
			return runs, nil
		})
		if v != i+1 || attached || err != nil {
			t.Fatalf("call %d: value=%d attached=%v err=%v, want a fresh run", i, v, attached, err)
		}
	}
	if runs != 3 {
		t.Fatalf("fn ran %d times across sequential calls, want 3", runs)
	}
}

// TestFlightGroupDistinctKeysIndependent pins that flights for different
// keys do not serialize: a second key's fn runs to completion while the
// first key's flight is still blocked.
func TestFlightGroupDistinctKeysIndependent(t *testing.T) {
	var g flightGroup[string, struct{}]
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		g.Do(context.Background(), "a", func() (struct{}, error) {
			close(started)
			<-release
			return struct{}{}, nil
		})
		close(done)
	}()
	<-started

	ran := false
	_, attached, err := g.Do(context.Background(), "b", func() (struct{}, error) {
		ran = true
		return struct{}{}, nil
	})
	if attached || err != nil || !ran {
		t.Fatalf("Do(b) while Do(a) in flight: attached=%v err=%v ran=%v", attached, err, ran)
	}
	close(release)
	<-done
}

// TestFlightGroupUncontendedDoesNotAllocate: a flight nobody attaches to
// reuses the record of the one before it and makes no channel, so the merge
// step, build and cell read a query leads allocate nothing for their flights.
func TestFlightGroupUncontendedDoesNotAllocate(t *testing.T) {
	var g flightGroup[int, int]
	fn := func() (int, error) { return 1, nil }
	g.Do(context.Background(), 7, fn) // the map and the first record
	if n := testing.AllocsPerRun(100, func() {
		if v, attached, err := g.Do(context.Background(), 7, fn); v != 1 || attached || err != nil {
			t.Fatalf("Do = %d, %v, %v", v, attached, err)
		}
	}); n != 0 {
		t.Fatalf("an uncontended Do: %v allocations, want 0", n)
	}
}

// TestFlightRecordsRecycleOnlyUnwatched: a record a waiter saw is never
// reused — not after a waiter whose context died gave up on it, nor after
// one that read the leader's value — while records nobody saw are, and every
// caller, attached or leading, reads its own key's value while other leaders
// recycle records around it.
func TestFlightRecordsRecycleOnlyUnwatched(t *testing.T) {
	var g flightGroup[int, int]
	started, release := make(chan struct{}), make(chan struct{})
	led := make(chan int)
	go func() {
		v, _, _ := g.Do(context.Background(), 1, func() (int, error) {
			close(started)
			<-release
			return 10, nil
		})
		led <- v
	}()
	<-started
	g.mu.Lock()
	watched := g.inflight[1]
	g.mu.Unlock()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, attached, err := g.Do(dead, 1, nil); !attached || !errors.Is(err, context.Canceled) {
		t.Fatalf("a waiter with a dead context: attached=%v err=%v, want attached and canceled", attached, err)
	}
	attached := make(chan int)
	go func() {
		v, _, _ := g.Do(context.Background(), 1, func() (int, error) { return -1, nil })
		attached <- v
	}()
	close(release)
	if v := <-led; v != 10 {
		t.Fatalf("leader read %d, want 10", v)
	}
	if v := <-attached; v != 10 && v != -1 {
		t.Fatalf("second waiter read %d, want the leader's 10 (or its own -1 had it led)", v)
	}
	for i := 0; i < 4; i++ {
		g.Do(context.Background(), 2, func() (int, error) {
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.inflight[2] == watched {
				t.Error("a record a waiter saw was reused")
			}
			return 0, nil
		})
	}

	// Leaders and both kinds of waiter on a few keys at once: values must
	// stay with their keys, and the race detector sees every record handoff.
	var wg sync.WaitGroup
	var attachedN, gaveUp atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := (w + i) % 3
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 0 {
					go cancel()
				}
				v, att, err := g.Do(ctx, key, func() (int, error) {
					for j := 0; j < 20; j++ {
						runtime.Gosched()
					}
					return key * 10, nil
				})
				cancel()
				switch {
				case err != nil && (!att || !errors.Is(err, context.Canceled)):
					t.Errorf("key %d: attached=%v err=%v", key, att, err)
				case err != nil:
					gaveUp.Add(1)
				case v != key*10:
					t.Errorf("key %d read %d", key, v)
				case att:
					attachedN.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if attachedN.Load() == 0 {
		t.Fatal("no caller attached: the storm exercised no waiter")
	}
	t.Logf("%d attached reads, %d waiters gave up", attachedN.Load(), gaveUp.Load())
}
