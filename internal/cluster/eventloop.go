// Event-queue fleet core: the exact barrier loop, with barrier
// elision. A barrier is *inert* when no event source — arrival
// generators, QPS schedule, warming completions, fault injector, retry
// queue, autoscaler watermarks — fires at it and every machine is
// quiescent. Inert barriers are elided: the loop advances its clock
// without touching any machine, and each node's deferred span is
// settled in one step (stepEvent -> catchUp) right before the next
// executed barrier. Machines count whole ticks and the accounting
// counts whole barriers, so a span settled at once reads exactly what
// executing every barrier would have, at every worker width.
//
// The elision predicate is deliberately conservative: any state it
// cannot prove inert (draining or unhealthy nodes, a node with work)
// forces the barrier to execute the full step body. nextDue states
// each event source's firing rule once; DESIGN.md §14 gives the
// determinism argument source by source.
package cluster

import (
	"context"
	"math"

	"aum/internal/machine"
	"aum/internal/runner"
	"aum/internal/telemetry"
)

// never is the due barrier of a source with nothing scheduled.
const never = math.MaxInt

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
	allIdle      bool  // every non-standby live node has empty queues and an idle engine
	drainingAny  bool  // a draining node may transition at any barrier
	unhealthyAny bool  // suspect/down/recovering nodes force execution
	minActiveAt  int64 // earliest warming -> active tick (math.MaxInt64: none warming)

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
	ev.drainingAny, ev.unhealthyAny = false, false
	ev.minActiveAt = math.MaxInt64
	for _, n := range s.nodes {
		switch n.state {
		case stateDraining:
			ev.drainingAny = true
		case stateWarming:
			ev.minActiveAt = min(ev.minActiveAt, n.activeAt)
		case stateSuspect, stateDown, stateRecovering:
			ev.unhealthyAny = true
		}
		if n.state == stateStandby || n.dead() {
			continue
		}
		if len(n.Inbox) != 0 || len(n.exports) != 0 || n.undelivered() != 0 ||
			!n.Engine.Idle() {
			ev.allIdle = false
		}
	}
}

// idle reports the frozen fleet facts elision needs: every live node
// quiescent, none draining, none unhealthy.
func (ev *eventState) idle() bool {
	return ev.allIdle && !ev.drainingAny && !ev.unhealthyAny
}

// canElide reports whether the barrier about to run is inert.
func (s *session) canElide() bool { return s.ev.idle() && s.nextDue() > s.bi }

// nextDue returns the first barrier at or after bi at which an event
// source fires: the one firing rule per source that canElide,
// stepArch and Session.NextEventAt share, and that step's own
// comparisons match. A timed event is seen by the first barrier that
// starts at or after it, except an arrival, which the barrier before
// emits: its window (start, end] holds the arrival. An autoscaler
// watermark fires when its breach streak reaches HoldBarriers.
func (s *session) nextDue() int {
	due := never
	fire := func(b int) { due = min(due, b) }
	fireAt := func(t float64) { fire(s.barrierOf(machine.TickOf(t))) }
	for _, g := range s.gens {
		if b := s.barrierOf(machine.TickOf(g.NextEventAt())); b != never {
			fire(b - 1)
		}
	}
	if s.qpsIdx < len(s.cfg.QPS) {
		fireAt(s.cfg.QPS[s.qpsIdx].At)
	}
	fire(s.barrierOf(s.ev.minActiveAt))
	if fe := s.fe; fe != nil {
		fireAt(fe.inj.NextEventAt())
		for _, e := range fe.retryq {
			fireAt(e.at)
		}
	}
	if sc := s.scaler; sc != nil {
		if !s.ev.spanFrozen {
			s.freezeScalerSpan()
		}
		// observe grows the streak, then fires when it reaches Hold; a
		// low-watermark breach with powered <= MinActive never fires.
		hold := sc.cfg.HoldBarriers - 1
		if s.ev.spanHi {
			fire(s.bi + hold - sc.hiStreak)
		}
		if s.ev.spanLo && s.ev.spanPowered > sc.cfg.MinActive {
			fire(s.bi + hold - sc.loStreak)
		}
	}
	return max(due, s.bi)
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
	ev.spanHi = util > s.scaler.cfg.HighUtil && canGrow(s.nodes)
	ev.spanLo = util < s.scaler.cfg.LowUtil
	ev.spanPowered = powered
	ev.spanFrozen = true
}

// elideBarrier is the cheap pulse for an inert barrier: advance the
// autoscaler streaks exactly as observe would (minus the firing
// branches nextDue ruled out), then close the barrier. Gauges keep
// their last executed values — they are sampled final-value-only, and
// the next executed barrier rewrites them all.
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
	s.ev.cElided.Inc()
	s.closeBarrier()
}

// catchUp settles the deferred span [deferFrom, bi) for every node:
// one stepEpoch to the span's end and one charge of its barriers.
// Nodes are independent across the span (all idle, no merges, states
// frozen), so the settlement parallelizes like an executed barrier.
func (s *session) catchUp() error {
	from, to := s.ev.deferFrom, s.bi
	if from >= to {
		return nil
	}
	if err := s.stepNodes(to-1, 0); err != nil {
		return err
	}
	for _, n := range s.nodes {
		n.charge(int64(to - from))
	}
	s.ev.deferFrom = to
	return nil
}

// stepNodes steps every node to the end of barrier b, concurrently, in
// contiguous shards of chunk nodes (0: the runner's default size).
// stepEpoch touches only its own node, so the result is independent of
// the worker width; each shard stops at its first failure, so the
// lowest-indexed one is reported.
func (s *session) stepNodes(b, chunk int) error {
	return runner.Shard(s.ctx, len(s.nodes), chunk, s.ropt,
		func(_ context.Context, lo, hi int) error {
			for _, n := range s.nodes[lo:hi] {
				if err := s.stepEpoch(n, b); err != nil {
					return err
				}
			}
			return nil
		})
}
