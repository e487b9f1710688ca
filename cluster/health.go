package cluster

import "time"

// ShardHealth is one shard's externally visible health snapshot
// (Router.Health).
type ShardHealth struct {
	// Shard is the shard index.
	Shard int
	// State is the state machine's current verdict.
	State ShardState
	// Probes and ProbeFailures count the probe loop's activity.
	Probes        int64
	ProbeFailures int64
	// Transitions counts state changes (up->down, down->up, ...); a
	// well-damped cluster under probe flaps keeps this near zero.
	Transitions int64
	// Serves and Rejects count sub-queries this shard answered and
	// sub-queries it rejected while crashed.
	Serves  int64
	Rejects int64
}

// The prober's hysteresis: a shard goes down only after probeDownAfter
// consecutive probe failures and comes back only after probeUpAfter
// consecutive successes, so a single flapped probe moves nothing.
const (
	probeDownAfter = 2
	probeUpAfter   = 2
)

// prober is one shard's health loop: a sampling goroutine with an explicit
// stop/done lifetime, feeding an up/down state machine with hysteresis.
type prober struct {
	s        *shard
	interval time.Duration

	stopCh chan struct{}
	done   chan struct{}

	// fails / oks are the consecutive-outcome streaks; transitions counts
	// verdict changes. All owned by the run goroutine; transitions is
	// mirrored into the shard's health snapshot under the router's stats
	// read, so it lives on the shard.
	fails int
	oks   int
}

func startProber(s *shard, interval time.Duration) *prober {
	p := &prober{
		s:        s,
		interval: interval,
		stopCh:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	go p.run()
	return p
}

func (p *prober) stop() {
	close(p.stopCh)
	<-p.done
}

// step feeds one probe outcome through the state machine. Split from run
// so the hysteresis trajectory is exactly unit-testable without clocks.
func (p *prober) step(err error) {
	cur := ShardState(p.s.state.Load())
	if err != nil {
		p.oks = 0
		p.fails++
		if cur != StateDown && p.fails >= probeDownAfter {
			p.transition(StateDown)
		}
		return
	}
	p.fails = 0
	p.oks++
	// Coming back from down needs a streak; flapping at the boundary must
	// not bounce routing.
	if cur == StateDown && p.oks >= probeUpAfter {
		p.transition(StateUp)
	}
}

func (p *prober) transition(next ShardState) {
	p.s.state.Store(int32(next))
	p.s.transitions.Add(1)
	p.oks, p.fails = 0, 0
}

func (p *prober) run() {
	defer close(p.done)
	ticker := time.NewTicker(p.interval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			return
		case <-ticker.C:
		}
		p.step(p.s.probe())
	}
}
