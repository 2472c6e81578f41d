// Archetype memoization (Config.Archetypes): the 100k-machine scale
// mode. The validated envelope (withDefaults) pins round-robin
// routing, mixed roles, tickless managers, and no faults / autoscale /
// BE / live source — so node states never change, the routable set per
// class is constant, and a machine that is not currently serving a
// request evolves exactly like every other idle machine of its class.
// That symmetry is the memoization: the first machine of a class to go
// idle donates one fast-forward StepN capture (machine.CloneCapture),
// and lazy machines adopt it (machine.AdoptCapture) to advance whole
// multi-barrier spans in O(tasks) instead of O(steps). A machine
// diverges the moment an arrival is routed to it: archTouch settles
// its deferred span, joins it to the busy set, and from then on it is
// stepped barrier by barrier with the exact epoch stepper until it
// drains back to quiescence (copy-on-divergence).
//
// State-time accounting is settled once at finish: states are frozen,
// so every node is charged the whole run's barrier count, which is
// exactly what the exact loop's per-barrier charges add up to. Results
// are approximate with respect to the exact loop only in
// warmup-snapshot placement (quantized to a barrier boundary) and
// coarse-idle float summation; the differential test pins the
// tolerance.
package cluster

import (
	"context"
	"fmt"

	"aum/internal/machine"
	"aum/internal/reqtrace"
	"aum/internal/runner"
	"aum/internal/telemetry"
)

// archState is the archetype core's bookkeeping.
type archState struct {
	cHits *telemetry.Counter

	// syncBI[i] is the barrier index through which node i's *machine*
	// has been advanced. Busy nodes are stepped every barrier, so
	// their entry is implicit (current); it is rewritten on retire.
	syncBI  []int
	inBusy  []bool
	adopted []bool // machine i runs on an adopted class capture
	busy    []int  // deterministic touch order
	retire  []int  // scratch: busy-slice indices retiring this barrier

	// An archetype is a (scenario class, platform) pair: machines in
	// the same class but on different platforms have different task
	// increments, so they must not share a capture. archOf[i] is node
	// i's archetype id; caps[a] is archetype a's interned capture.
	// routable[k] is the frozen per-class routable set (states never
	// change in this mode).
	archOf   []int
	caps     []machine.ReplayCapture
	routable [][]int

	// Constant-state gauge values, computed once.
	activeN  int
	poweredN int
	capSum   float64
}

func newArchState(s *session) *archState {
	a := &archState{
		cHits:    s.cfg.Telemetry.Counter("aum_cluster_archetype_hits_total"),
		syncBI:   make([]int, len(s.nodes)),
		inBusy:   make([]bool, len(s.nodes)),
		adopted:  make([]bool, len(s.nodes)),
		archOf:   make([]int, len(s.nodes)),
		routable: make([][]int, len(s.classes)),
	}
	for k := range s.classes {
		a.routable[k] = routableNodes(s.nodes, k, nil)
	}
	// Group nodes into archetypes and prime each archetype's first
	// routable node into the busy set, so its idle evolution forms the
	// capture the rest of the group adopts.
	ids := map[string]int{}
	var primed []bool
	for i, n := range s.nodes {
		key := fmt.Sprintf("%d|%s", n.class, n.spec.Plat.Name)
		id, ok := ids[key]
		if !ok {
			id = len(ids)
			ids[key] = id
			primed = append(primed, false)
		}
		a.archOf[i] = id
		if !primed[id] && n.state == stateActive {
			primed[id] = true
			a.inBusy[i] = true
			a.busy = append(a.busy, i)
		}
	}
	a.caps = make([]machine.ReplayCapture, len(ids))
	for _, n := range s.nodes {
		if n.state == stateActive {
			a.activeN++
		}
		if n.state != stateStandby {
			a.poweredN++
			a.capSum += n.capacity
		}
	}
	return a
}

// stepArch advances one barrier in archetype mode. Only the busy set
// is stepped; barriers with no busy machines and no event due are
// elided in O(classes).
func (s *session) stepArch() error {
	a := s.arch
	if len(a.busy) == 0 && s.nextDue() > s.bi {
		s.elideBarrier()
		return nil
	}
	start, end := s.now(), s.at(s.bi+1)
	s.openBarrier()
	for k, g := range s.gens {
		arrivals := g.Emit(start, end-start)
		if len(arrivals) == 0 {
			continue
		}
		routable := a.routable[k]
		if len(routable) == 0 {
			s.shed += len(arrivals)
			continue
		}
		for _, r := range arrivals {
			if s.rt != nil {
				r.TraceID = reqtrace.MakeTraceID(k, r.ID)
			}
			i := s.bal.pick(k, s.nodes, routable)
			if err := s.archTouch(i); err != nil {
				return err
			}
			s.nodes[i].inbox = append(s.nodes[i].inbox, r)
			s.nodes[i].requests++
		}
		s.cRouted.Add(uint64(len(arrivals)))
	}

	// Step the busy set with the exact epoch stepper; every member is
	// synced to this barrier by construction.
	nodes := s.nodes
	if err := runner.Shard(s.ctx, len(a.busy), 0, s.ropt,
		func(_ context.Context, lo, hi int) error {
			for _, i := range a.busy[lo:hi] {
				if err := s.stepEpoch(nodes[i], s.bi); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}

	// Retire members that drained back to quiescence and can advance
	// coarsely from here; intern the first idle capture per class as
	// the archetype.
	a.retire = a.retire[:0]
	for bj, i := range a.busy {
		n := nodes[i]
		if !n.env.Engine.Idle() || n.undelivered() != 0 {
			continue
		}
		if !n.env.M.CoarseReady() {
			continue
		}
		if id := a.archOf[i]; !a.caps[id].Valid() {
			if c, ok := n.env.M.CloneCapture(); ok {
				a.caps[id] = c
			}
		}
		a.retire = append(a.retire, bj)
	}
	for d := len(a.retire) - 1; d >= 0; d-- {
		bj := a.retire[d]
		i := a.busy[bj]
		a.inBusy[i] = false
		a.syncBI[i] = s.bi + 1
		a.busy = append(a.busy[:bj], a.busy[bj+1:]...)
	}

	queued := 0
	for _, i := range a.busy {
		queued += nodes[i].env.Engine.QueueLen()
	}
	s.gActive.Set(float64(a.activeN))
	s.gPowered.Set(float64(a.poweredN))
	s.gRate.Set(s.rate)
	s.gQueue.Set(float64(queued))
	if a.capSum > 0 {
		s.gUtil.Set(s.rate / a.capSum)
	}
	s.gAvail.Set(1) // no fault engine in the archetype envelope
	s.closeBarrier()
	return nil
}

// archTouch makes node i current with the barrier about to execute:
// settle its deferred machine span coarsely, then join the busy set.
func (s *session) archTouch(i int) error {
	a := s.arch
	if a.inBusy[i] {
		return nil
	}
	if k := s.bi - a.syncBI[i]; k > 0 {
		if err := s.archAdvance(i, a.syncBI[i], k); err != nil {
			return err
		}
	}
	a.syncBI[i] = s.bi
	a.inBusy[i] = true
	a.busy = append(a.busy, i)
	return nil
}

// archAdvance coarsely advances node i's machine across the deferred
// barrier span [from, from+k), splitting at the warmup boundary so the
// measurement snapshot lands on the first barrier start at or after
// the warmup tick.
func (s *session) archAdvance(i, from, k int) error {
	n := s.nodes[i]
	warmB := int((s.warm + int64(s.steps) - 1) / int64(s.steps))
	if !n.measured && from < warmB && from+k >= warmB {
		if err := s.archSpan(i, from, warmB-from); err != nil {
			return err
		}
		n.snapshot()
		from, k = warmB, from+k-warmB
	}
	if err := s.archSpan(i, from, k); err != nil {
		return err
	}
	if s.barrierTick(from+k) >= s.warm {
		n.snapshot()
	}
	return nil
}

// archSpan advances one contiguous quiescent span of kb barriers:
// closed-form skip on the machine's own capture, adoption of the class
// archetype for virgins, or — when neither applies — exact stepping
// through the span.
func (s *session) archSpan(i, fromB, kb int) error {
	if kb <= 0 {
		return nil
	}
	a := s.arch
	n := s.nodes[i]
	m := n.env.M
	if n.state == stateStandby || n.dead() {
		m.AdvanceIdle(kb * s.steps)
		return nil
	}
	if m.SkipQuiescent(kb * s.steps) {
		if a.adopted[i] {
			a.cHits.Inc()
		}
		return nil
	}
	if c := a.caps[a.archOf[i]]; c.Valid() && m.AdoptCapture(c) {
		a.adopted[i] = true
		if m.SkipQuiescent(kb * s.steps) {
			a.cHits.Inc()
			return nil
		}
	}
	return s.stepEpoch(n, fromB+kb-1)
}

// archFinish syncs every lazy machine to the last barrier and settles
// the deferred state-time accounting for the whole fleet. Called from
// finishAt before the measurement tail reads machine clocks.
func (s *session) archFinish() error {
	a := s.arch
	to := s.bi
	// Busy members are already stepped through the last executed
	// barrier; lazy members advance their deferred span in parallel
	// (the class captures are read-only now).
	if err := runner.Shard(s.ctx, len(s.nodes), 0, s.ropt,
		func(_ context.Context, lo, hi int) error {
			for i := lo; i < hi; i++ {
				if a.inBusy[i] {
					continue
				}
				if k := to - a.syncBI[i]; k > 0 {
					if err := s.archAdvance(i, a.syncBI[i], k); err != nil {
						return err
					}
					a.syncBI[i] = to
				}
			}
			return nil
		}); err != nil {
		return err
	}
	// Deferred accounting: states are frozen in this mode, so the
	// exact loop's per-barrier charges collapse to one charge of the
	// whole run, made from zero so a repeated Finish stays idempotent.
	for _, n := range s.nodes {
		n.upB, n.downB, n.activeB = 0, 0, 0
		n.charge(int64(to))
	}
	return nil
}
