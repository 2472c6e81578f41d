// Event-queue fleet core: the exact barrier loop, with barrier
// elision. A barrier is *inert* when no event source — arrival
// generators, QPS schedule, warming completions, fault injector, retry
// queue, autoscaler watermarks — can observably fire during it and
// every machine is quiescent. Inert barriers are elided: the loop
// advances its clock without touching any machine; deferred per-node
// work is replayed barrier by barrier (stepEvent -> catchUp) right
// before the next executed barrier, with exactly the call sequence
// executing every barrier would have made, so results are the same at
// every worker width with fast-forward on or off.
//
// The elision predicate is deliberately conservative: any state it
// cannot prove inert (draining or unhealthy nodes, a live source with
// arrivals due, a watermark streak one barrier from firing) forces the
// barrier to execute the full step body. DESIGN.md §14 gives the
// determinism argument source by source.
package cluster

import (
	"context"
	"math"

	"aum/internal/runner"
	"aum/internal/telemetry"
)

// eventState is the event core's bookkeeping between barriers.
type eventState struct {
	cElided *telemetry.Counter

	// deferFrom is the first barrier index whose per-node epoch work
	// has been elided and not yet replayed. Invariant: deferFrom == bi
	// immediately after an executed barrier.
	deferFrom int

	// Fleet scan, taken when the session is built, refreshed after
	// every executed barrier and frozen across an elided span (no event
	// can fire inside the span, so no node state or queue content can
	// change).
	allIdle      bool // every non-standby live node has empty queues and an idle engine
	drainingAny  bool // a draining node may transition at any barrier
	unhealthyAny bool // suspect/down/recovering nodes force execution
	warmingAny   bool
	minActiveAt  float64 // earliest warming -> active completion

	// Autoscaler span freeze: utilization is constant across an elided
	// span (rate, states and capacities frozen), so the watermark
	// comparisons are computed once and only the streaks advance.
	spanFrozen  bool
	spanHi      bool
	spanLo      bool
	spanPowered int
}

// stepEvent advances one barrier: elide it if it is provably inert,
// otherwise replay the deferred span and run the executed-barrier body.
func (s *session) stepEvent() error {
	if s.canElide() {
		s.elideBarrier()
		return nil
	}
	if err := s.catchUp(); err != nil {
		return err
	}
	if err := s.step(); err != nil {
		return err
	}
	s.ev.deferFrom = s.bi
	s.refreshEventScan()
	return nil
}

// refreshEventScan recomputes the frozen fleet facts after an executed
// barrier. O(nodes), once per executed barrier.
func (s *session) refreshEventScan() {
	ev := &s.ev
	ev.spanFrozen = false
	ev.allIdle = true
	ev.drainingAny, ev.unhealthyAny, ev.warmingAny = false, false, false
	ev.minActiveAt = math.Inf(1)
	for _, n := range s.nodes {
		switch n.state {
		case stateDraining:
			ev.drainingAny = true
		case stateWarming:
			ev.warmingAny = true
			if n.activeAt < ev.minActiveAt {
				ev.minActiveAt = n.activeAt
			}
		case stateSuspect, stateDown, stateRecovering:
			ev.unhealthyAny = true
		}
		if n.state == stateStandby || n.dead() {
			continue
		}
		if len(n.inbox) != 0 || len(n.exports) != 0 || n.undelivered() != 0 ||
			!n.env.Engine.Idle() {
			ev.allIdle = false
		}
	}
}

// canElide reports whether the barrier starting at now() is inert.
// Every comparison replicates the corresponding step check exactly
// (same epsilons, same pop conditions), so "no source fires" here
// means the executed barrier would have been a no-op for that source.
func (s *session) canElide() bool {
	ev, cfg := &s.ev, s.cfg
	start := s.now()
	if !ev.allIdle || ev.drainingAny || ev.unhealthyAny {
		return false
	}
	// Warming completion (step's lifecycle loop): start >= activeAt-1e-9.
	if ev.warmingAny && start >= ev.minActiveAt-1e-9 {
		return false
	}
	// QPS schedule pop: At <= start+1e-9.
	if s.qpsIdx < len(cfg.QPS) && cfg.QPS[s.qpsIdx].At <= start+1e-9 {
		return false
	}
	// Arrival generators: Emit(start, B) pops events with At in
	// (start, start+B]; NextEventAt past the window means Emit would
	// return nothing and mutate nothing.
	for _, g := range s.gens {
		if g.NextEventAt(start) <= start+cfg.BarrierS {
			return false
		}
	}
	if fe := s.fe; fe != nil {
		// Injector Fire pops At <= now; retry dispatch pops at <= now.
		if fe.inj.NextEventAt() <= start {
			return false
		}
		for _, e := range fe.retryq {
			if e.at <= start {
				return false
			}
		}
	}
	if sc := s.scaler; sc != nil {
		if !ev.spanFrozen {
			s.freezeScalerSpan()
		}
		// observe increments the streak first, then compares >= Hold:
		// a barrier fires iff streak+1 crosses. A low-watermark breach
		// with powered <= MinActive grows the streak without firing.
		if ev.spanHi && sc.hiStreak+1 >= sc.cfg.HoldBarriers {
			return false
		}
		if ev.spanLo && sc.loStreak+1 >= sc.cfg.HoldBarriers && ev.spanPowered > sc.cfg.MinActive {
			return false
		}
	}
	return true
}

// freezeScalerSpan evaluates the autoscaler's watermark comparisons
// once for the elided span, with observe's exact capacity loop.
func (s *session) freezeScalerSpan() {
	ev := &s.ev
	var capacity float64
	powered := 0
	for _, n := range s.nodes {
		if n.state == stateActive || n.state == stateWarming {
			capacity += n.capacity
			powered++
		}
	}
	util := math.Inf(1)
	if capacity > 0 {
		util = s.rate / capacity
	}
	ev.spanHi = util > s.scaler.cfg.HighUtil
	ev.spanLo = util < s.scaler.cfg.LowUtil
	ev.spanPowered = powered
	ev.spanFrozen = true
}

// elideBarrier is the cheap pulse for an inert barrier: advance the
// autoscaler streaks exactly as observe would (minus the firing
// branches canElide ruled out), publish, progress, tick the clock.
// Gauges keep their last executed values — they are sampled
// final-value-only, and the next executed barrier rewrites them all.
func (s *session) elideBarrier() {
	if sc := s.scaler; sc != nil {
		if s.ev.spanHi {
			sc.hiStreak++
		} else {
			sc.hiStreak = 0
		}
		if s.ev.spanLo {
			sc.loStreak++
		} else {
			sc.loStreak = 0
		}
	}
	s.rt.Publish()
	if s.cfg.Progress != nil {
		s.cfg.Progress(float64(s.bi+1) * s.cfg.BarrierS)
	}
	s.bi++
	s.ev.cElided.Inc()
}

// catchUp replays the deferred span [deferFrom, bi) for every node,
// barrier by barrier — the same stepEpoch calls in the same per-node
// order the executed barriers would have made, plus the accounting
// charges step's tail makes (node.charge). Iterated per-barrier float
// additions are preserved (one fused k*B add is not byte-identical),
// which is the whole reason this loop is per-barrier rather than one
// span advance.
// Nodes are independent across the span (all idle, no merges), so the
// replay parallelizes over contiguous shards of nodes.
func (s *session) catchUp() error {
	from, to := s.ev.deferFrom, s.bi
	if from >= to {
		return nil
	}
	cfg := s.cfg
	err := runner.Shard(s.ctx, len(s.nodes), 0, s.ropt,
		func(_ context.Context, lo, hi int) error {
			for _, n := range s.nodes[lo:hi] {
				for b := from; b < to; b++ {
					if err := stepEpoch(cfg, n, float64(b)*cfg.BarrierS, s.steps); err != nil {
						return err
					}
					n.charge(cfg.BarrierS)
				}
			}
			return nil
		})
	if err == nil {
		s.ev.deferFrom = to
	}
	return err
}
