// Fleet fault tolerance (DESIGN.md §10): the per-node health state
// machine (Ready → Suspect → Down → Recovering → Ready), crash
// harvesting, retry scheduling with capped exponential backoff and
// deterministic jitter, KV re-handoff vs. prefill recompute, and the
// per-node circuit breaker. Everything here runs in the single-threaded
// barrier code of run(), in machine-index order — faults quantize to
// tick barriers exactly like routing and autoscaling, which is what
// keeps a faulted fleet byte-identical across worker widths.
package cluster

import (
	"math"

	"aum/internal/chaos"
	"aum/internal/machine"
	"aum/internal/reqtrace"
	"aum/internal/rng"
	"aum/internal/serve"
	"aum/internal/telemetry"
)

// Failover timings (DESIGN.md §10). Every faulted fleet runs with
// these values.
const (
	// confirmDownS is the detection delay between a machine dying
	// (Suspect) and the fleet confirming the loss (Down) — only at the
	// Down transition are its in-flight requests harvested and
	// re-dispatched.
	confirmDownS = 0.2
	// recoveryWarmupS is the reboot-and-rewarm time between a fault
	// expiring and the machine serving again; the machine burns power
	// but takes no traffic, like an autoscaler warmup.
	recoveryWarmupS = 2.0
	// retryBudget caps how many times one request may be re-dispatched
	// after crashes before it is failed outright.
	retryBudget = 3
	// backoffBaseS is the first retry delay; attempt k waits
	// min(backoffBaseS·2^(k-1), backoffCapS), jittered.
	backoffBaseS = 0.05
	// backoffCapS caps the exponential backoff.
	backoffCapS = 1.0
	// jitterFrac spreads each backoff uniformly over ±this fraction,
	// drawn from a stream derived from (Seed, class, request ID,
	// attempt) — pure data, so jitter cannot break width determinism.
	jitterFrac = 0.2
	// breakerThreshold is the per-node circuit breaker: once a machine
	// has crashed this many times, its next rejoin is delayed by
	// breakerHoldS on top of the recovery warmup.
	breakerThreshold = 3
	// breakerHoldS is the extra quarantine a tripped breaker adds
	// before the machine may serve again.
	breakerHoldS = 10.0
)

// HealthEvent is one node health transition, in fleet time.
type HealthEvent struct {
	At      float64
	Machine string
	// State names the transition target: suspect | down | recovering |
	// ready | breaker-open | link-down | link-up | link-brownout |
	// link-nominal | straggler | straggler-clear.
	State string
}

// retryEntry is one crashed request awaiting re-dispatch.
type retryEntry struct {
	req     *serve.Request
	class   int
	at      float64 // earliest re-dispatch time (backoff + jitter)
	attempt int
}

// faultEngine owns the fleet's failover state. All its methods are
// called from the single-threaded barrier code.
type faultEngine struct {
	inj  *chaos.FleetInjector
	seed uint64

	// attempts is keyed by pointer, not ID: per-class generators can
	// reuse IDs, but a request object is unique.
	attempts map[*serve.Request]int
	retryq   []retryEntry
	routable []int // dispatchDue scratch, reused across barriers

	crashes      int
	redispatched int
	retried      int
	recomputed   int
	rerouted     int
	failed       int
	outages      int
	mttrTicks    int64 // summed crash -> ready ticks of completed outages

	events []HealthEvent
	rt     *reqtrace.Tracer // per-request causal tracer (nil-safe)

	cCrashes      *telemetry.Counter
	cRetries      *telemetry.Counter
	cRedispatched *telemetry.Counter
	cRecomputed   *telemetry.Counter
	cRerouted     *telemetry.Counter
	cFailed       *telemetry.Counter
	reg           *telemetry.Registry
}

func newFaultEngine(cfg Config) (*faultEngine, error) {
	inj, err := chaos.NewFleetInjector(*cfg.Faults, len(cfg.Machines))
	if err != nil {
		return nil, err
	}
	reg := cfg.Telemetry
	return &faultEngine{
		inj:           inj,
		seed:          cfg.Seed,
		attempts:      make(map[*serve.Request]int),
		reg:           reg,
		cCrashes:      reg.Counter("aum_fleet_crashes_total"),
		cRetries:      reg.Counter("aum_fleet_retries_total"),
		cRedispatched: reg.Counter("aum_fleet_redispatched_total"),
		cRecomputed:   reg.Counter("aum_fleet_kv_recomputed_total"),
		cRerouted:     reg.Counter("aum_fleet_kv_rerouted_total"),
		cFailed:       reg.Counter("aum_fleet_retry_exhausted_total"),
	}, nil
}

func (fe *faultEngine) event(now float64, n *node, state string) {
	fe.events = append(fe.events, HealthEvent{At: now, Machine: n.Name, State: state})
	fe.reg.Emit(now, "cluster", "node-health",
		telemetry.F("machine", n.Name), telemetry.F("state", state))
}

// apply fires every scheduled fault (and expiry) due at the barrier
// starting at tick and then advances detection/recovery timers. Called
// once per barrier before routing, so the balancer and decode-target
// picker already see the post-fault health states.
func (fe *faultEngine) apply(tick int64, cfg Config, nodes []*node, link *kvLink) {
	now := machine.Time(tick)
	for _, f := range fe.inj.Fire(now) {
		n := nodes[f.Event.Machine]
		switch f.Event.Kind {
		case chaos.MachineCrash:
			if f.Revert {
				fe.beginRecovery(tick, cfg, nodes, link, n)
			} else {
				fe.crash(tick, n)
			}
		case chaos.LinkDown:
			n.linkDown = !f.Revert
			if f.Revert {
				fe.event(now, n, "link-up")
			} else {
				fe.event(now, n, "link-down")
			}
		case chaos.LinkBrownout:
			if f.Revert {
				link.setDerate(f.Event.Machine, 1)
				fe.event(now, n, "link-nominal")
			} else {
				link.setDerate(f.Event.Machine, f.Event.Factor)
				fe.event(now, n, "link-brownout")
			}
		case chaos.Straggler:
			if f.Revert {
				n.M.SetFreqDerate(1)
				fe.event(now, n, "straggler-clear")
			} else {
				n.M.SetFreqDerate(f.Event.Factor)
				fe.event(now, n, "straggler")
			}
		}
	}
	// Detection and recovery timers, quantized to barriers.
	for _, n := range nodes {
		switch n.state {
		case stateSuspect:
			if tick >= n.confirmAt {
				n.state = stateDown
				fe.event(now, n, "down")
				fe.harvest(now, cfg, nodes, link, n)
			}
		case stateRecovering:
			if tick >= n.activeAt {
				n.state = stateActive
				fe.outages++
				fe.mttrTicks += tick - n.downSince
				n.outages++
				fe.event(now, n, "ready")
			}
		}
	}
}

// crash moves a serving machine to Suspect: it is dead from this
// instant — it steps nothing and burns nothing — but the fleet has not
// noticed yet, so its in-flight requests sit unharvested until the
// Down confirmation. Crashing a powered-off standby machine is a
// no-op.
func (fe *faultEngine) crash(tick int64, n *node) {
	now := machine.Time(tick)
	switch n.state {
	case stateStandby, stateSuspect, stateDown:
		return
	case stateRecovering:
		// Crashed again mid-reboot: back to Suspect; the original
		// downSince stands so MTTR spans the whole compound outage.
		n.state = stateSuspect
		n.confirmAt = tick + machine.TickOf(confirmDownS)
		n.crashes++
		fe.crashes++
		fe.cCrashes.Inc()
		fe.event(now, n, "suspect")
		return
	}
	n.state = stateSuspect
	n.downSince = tick
	n.confirmAt = tick + machine.TickOf(confirmDownS)
	n.crashes++
	fe.crashes++
	fe.cCrashes.Inc()
	// The machine's workers will be mutated behind its back at harvest;
	// a stale quiescence capture must never replay across the outage.
	n.M.InvalidateCapture()
	fe.event(now, n, "suspect")
}

// beginRecovery handles a crash expiry: the machine starts rebooting.
// If the loss was never confirmed (outage shorter than confirmDownS),
// the in-flight state is still gone — a blip loses memory contents just
// as thoroughly — so the harvest happens now instead.
func (fe *faultEngine) beginRecovery(tick int64, cfg Config, nodes []*node, link *kvLink, n *node) {
	now := machine.Time(tick)
	switch n.state {
	case stateSuspect:
		fe.harvest(now, cfg, nodes, link, n)
	case stateDown:
		// Already harvested at confirmation.
	default:
		return // crash never applied (standby at injection time)
	}
	n.state = stateRecovering
	n.activeAt = tick + machine.TickOf(recoveryWarmupS)
	if n.crashes >= breakerThreshold && !n.breakerOpen {
		n.breakerOpen = true
		n.activeAt += machine.TickOf(breakerHoldS)
		fe.event(now, n, "breaker-open")
	}
	fe.event(now, n, "recovering")
}

// harvest strips a dead machine of every request it was carrying and
// queues each for re-dispatch: the engine's queue, in-flight prefill,
// decode batch and backlog; prefilled exports whose KV died with the
// machine; and KV handoffs in flight toward it, which are re-sent to a
// surviving decode sink over the original source's link when possible
// and fall back to prefill recompute otherwise.
func (fe *faultEngine) harvest(now float64, cfg Config, nodes []*node, link *kvLink, n *node) {
	self := -1
	for i, m := range nodes {
		if m == n {
			self = i
			break
		}
	}
	lost := n.Engine.Crash(now)
	n.M.InvalidateCapture()
	for _, ex := range n.exports {
		lost = append(lost, ex.req)
	}
	n.exports = n.exports[:0]
	for _, h := range n.pending[n.handIdx:] {
		tgt := pickDecodeTarget(nodes, n.class, self)
		if tgt >= 0 && !nodes[h.src].linkDown {
			// The source still holds the KV pages: re-send them to a
			// surviving sink, charged on the source's link again.
			bytes := cfg.Model.KVBytesPerToken() * float64(h.req.PromptLen)
			done := link.transfer(h.src, now, bytes)
			t := nodes[tgt]
			t.pending = append(t.pending, handoff{req: h.req, src: h.src, deliverAt: done})
			t.handRecv++
			fe.rerouted++
			fe.cRerouted.Inc()
			continue
		}
		// No surviving sink (or the source link is partitioned): the
		// prefill must be recomputed from the prompt.
		fe.recomputed++
		fe.cRecomputed.Inc()
		lost = append(lost, h.req)
	}
	n.pending = n.pending[:0]
	n.handIdx = 0
	for _, r := range lost {
		if r == nil || r.Done {
			continue
		}
		fe.rt.CrashLost(r.TraceID, now, self)
		fe.scheduleRetry(now, r, n.class)
	}
	fe.reg.Emit(now, "cluster", "node-harvest",
		telemetry.F("machine", n.Name), telemetry.Ff("lost", float64(len(lost))))
}

// scheduleRetry resets a crashed request and queues it for re-dispatch
// after a capped exponential backoff with deterministic jitter. A
// request past its retry budget is failed outright — an outcome, not
// an error, and counted as such.
func (fe *faultEngine) scheduleRetry(now float64, r *serve.Request, class int) {
	attempt := fe.attempts[r] + 1
	if attempt > retryBudget {
		r.Done = true
		fe.failed++
		fe.cFailed.Inc()
		fe.rt.Failed(r.TraceID, now)
		return
	}
	fe.attempts[r] = attempt
	backoff := backoffBaseS * math.Pow(2, float64(attempt-1))
	if backoff > backoffCapS {
		backoff = backoffCapS
	}
	// The jitter stream is a pure function of (seed, class, ID,
	// attempt): no shared generator, so neither worker width nor
	// harvest order can perturb it (DESIGN.md §10).
	u := rng.DeriveUniform(fe.seed, 0x8e77, uint64(class), uint64(r.ID), uint64(attempt))
	backoff *= 1 + jitterFrac*(2*u-1)
	r.ResetForRetry()
	fe.retried++
	fe.cRetries.Inc()
	fe.retryq = append(fe.retryq, retryEntry{req: r, class: class, at: now + backoff, attempt: attempt})
}

// dispatchDue re-routes every retry whose backoff has elapsed through
// the balancer, in deterministic (at, class, ID, attempt) order.
// Classes with no routable machine keep their entries queued — total
// outages defer retries rather than consuming budget.
func (fe *faultEngine) dispatchDue(now float64, nodes []*node, bal *balancer) {
	if len(fe.retryq) == 0 {
		return
	}
	// Insertion sort: produces the same stable order sort.SliceStable
	// did (strict-less swaps never reorder equals) without its
	// reflect-based swapper allocations — the queue is short and
	// near-sorted, so this is also the faster shape.
	for i := 1; i < len(fe.retryq); i++ {
		for j := i; j > 0 && retryBefore(fe.retryq[j], fe.retryq[j-1]); j-- {
			fe.retryq[j], fe.retryq[j-1] = fe.retryq[j-1], fe.retryq[j]
		}
	}
	routable := fe.routable[:0]
	keep := fe.retryq[:0]
	for _, e := range fe.retryq {
		if e.at > now {
			keep = append(keep, e)
			continue
		}
		routable = routableNodes(nodes, e.class, routable[:0])
		if len(routable) == 0 {
			keep = append(keep, e)
			continue
		}
		i := bal.pick(e.class, nodes, routable)
		nodes[i].Inbox = append(nodes[i].Inbox, e.req)
		nodes[i].redispatched++
		fe.redispatched++
		fe.cRedispatched.Inc()
		fe.rt.Redispatched(e.req.TraceID, now, i)
	}
	fe.routable = routable
	fe.retryq = keep
}

// retryBefore is dispatchDue's deterministic (at, class, ID, attempt)
// dispatch order.
func retryBefore(a, b retryEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	if a.req.ID != b.req.ID {
		return a.req.ID < b.req.ID
	}
	return a.attempt < b.attempt
}

// dead reports whether the machine is off the power rail entirely:
// Suspect and Down machines step nothing and burn nothing.
func (n *node) dead() bool {
	return n.state == stateSuspect || n.state == stateDown
}
