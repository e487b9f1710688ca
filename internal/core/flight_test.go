package core

import (
	"context"
	"errors"
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
