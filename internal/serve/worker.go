package serve

import (
	"fmt"
	"math"

	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/power"
)

// job is one iteration in flight: a prefill pass, one chunk of a
// chunked prefill, or a decode step.
type job struct {
	plan        llm.IterationPlan
	reqs        []*Request
	remaining   float64 // fraction of the iteration still to execute
	chunkTokens int     // >0 for a chunked prefill job
	startedAt   float64 // formation time (iteration start for blame)

	// Causal-tracing state (package reqtrace). traced is set at job
	// formation when any request in the job is sampled; the stall
	// fractions are computed once at the completion boundary and carry
	// the membw/throttle share of the iteration's execution time.
	traced       bool
	execMembw    float64
	execThrottle float64
}

// Worker executes one serving phase as a machine workload. The manager
// places the prefill worker in the high-AU region and the decode worker
// in the low-AU region (Section VI-B2).
type Worker struct {
	eng     *Engine
	phase   llm.Phase
	current *job

	// Telemetry for controllers and the profiler. lastCostS is the
	// unclamped TotalS of the last iteration cost Step used.
	lastCostS float64
	busyTime  float64
	idleTime  float64
	completed int

	// lastSteady records whether the last Step was a single clean
	// iteration slice (one loop pass, no job boundary) — the only shape
	// a quiescent replay may extend (see CanQuiesce).
	lastSteady bool

	costs   costCache
	demands demandCache
}

// costKey identifies one CostIteration evaluation. Every plan a worker
// executes comes from its engine's model via PlanPrefill/PlanDecode,
// which are pure functions of (phase, batch, seqLen) — so those three
// scalars identify the plan without comparing the whole struct. The
// environment contributes exactly the fields the cost model reads; the
// platform is deliberately excluded because a worker runs on one
// machine for its whole life.
type costKey struct {
	phase  llm.Phase
	batch  int
	seqLen int
	cores  int
	ghz    float64
	share  float64
	llc    float64
	bw     float64
}

func keyOf(p *llm.IterationPlan, env machine.Env) costKey {
	return costKey{phase: p.Phase, batch: p.Batch, seqLen: p.SeqLen,
		cores: env.Cores, ghz: env.GHz,
		share: env.ComputeShare, llc: env.LLCMB, bw: env.BWGBs}
}

// costCache memoizes CostIteration over the last few (plan, env)
// pairs. The machine evaluates each worker up to three times per step
// (demand estimation, bandwidth appetite, execution) under environments
// that repeat between control-interval boundaries, so a tiny
// direct-search cache removes most of the roofline math from the hot
// loop without changing a single result.
type costCache struct {
	keys [4]costKey
	cost [4]llm.IterationCost
	ok   [4]bool
	next int
}

// get returns the cost of p under env. The result points into the
// cache and stays valid only until the next get on the same cache;
// callers read it and must never write through it.
func (c *costCache) get(p *llm.IterationPlan, env machine.Env) *llm.IterationCost {
	k := keyOf(p, env)
	for i := range c.keys {
		if c.ok[i] && c.keys[i] == k {
			return &c.cost[i]
		}
	}
	i := c.next
	c.keys[i], c.cost[i], c.ok[i] = k, llm.CostIteration(*p, env), true
	c.next = (i + 1) % len(c.keys)
	return &c.cost[i]
}

// demandCache memoizes DemandOf, whose result is independent of the
// granted bandwidth (it evaluates the plan under infinite bandwidth).
type demandCache struct {
	keys [2]costKey
	gbs  [2]float64
	ok   [2]bool
	next int
}

func (c *demandCache) get(p *llm.IterationPlan, env machine.Env) float64 {
	k := keyOf(p, env)
	k.bw = 0 // DemandOf ignores the bandwidth grant
	for i := range c.keys {
		if c.ok[i] && c.keys[i] == k {
			return c.gbs[i]
		}
	}
	v := llm.DemandOf(*p, env)
	c.keys[c.next], c.gbs[c.next], c.ok[c.next] = k, v, true
	c.next = (c.next + 1) % len(c.keys)
	return v
}

// Name implements machine.Workload.
func (w *Worker) Name() string {
	return fmt.Sprintf("llm-%s:%s", w.eng.cfg.Model.Name, w.phase)
}

// Phase returns the worker's serving phase.
func (w *Worker) Phase() llm.Phase { return w.phase }

// Completed returns the number of iterations finished so far.
func (w *Worker) Completed() int { return w.completed }

// Utilization returns the busy fraction since the worker started.
func (w *Worker) Utilization() float64 {
	t := w.busyTime + w.idleTime
	if t <= 0 {
		return 0
	}
	return w.busyTime / t
}

// CurrentPlan returns the plan being executed, if any.
func (w *Worker) CurrentPlan() (llm.IterationPlan, bool) {
	if w.current == nil {
		return llm.IterationPlan{}, false
	}
	return w.current.plan, true
}

// abort drops the in-flight job without completing it — the host
// machine crashed mid-iteration. lastSteady is cleared so a stale
// fast-forward capture can never claim the next step is quiescent.
func (w *Worker) abort() {
	w.current = nil
	w.lastSteady = false
}

// ensureJob pulls the next job from the engine if none is in flight.
func (w *Worker) ensureJob(now float64) *job {
	if w.current != nil {
		return w.current
	}
	var j *job
	if w.phase == llm.Prefill {
		j = w.eng.nextPrefillJob(now)
	} else {
		j = w.eng.nextDecodeJob(now)
	}
	if j != nil {
		j.remaining = 1
		w.current = j
	}
	return j
}

// spinUtil is the power-relevant utilization of a starved worker:
// xFasterTransformer-style OpenMP workers busy-wait on their cores
// rather than sleeping, so exclusively-allocated cores burn near-scalar
// power even with no request in flight. This is the resource waste the
// paper's exclusive baseline pays for (Section III-B).
const spinUtil = 0.5

// Demand implements machine.Workload: the appetite of the current (or
// imminent) iteration.
func (w *Worker) Demand(env machine.Env) machine.Demand {
	j := w.current
	if j == nil {
		// Starved: spin-waiting at scalar power, no memory traffic.
		if w.phase == llm.Prefill && w.eng.QueueLen() == 0 {
			return machine.Demand{Class: power.Scalar, Util: spinUtil}
		}
		if w.phase == llm.Decode && w.eng.DecodeBatch() == 0 {
			return machine.Demand{Class: power.Scalar, Util: spinUtil}
		}
	}
	var plan *llm.IterationPlan
	if j != nil {
		plan = &j.plan
	} else {
		var p llm.IterationPlan
		if w.phase == llm.Prefill {
			p = w.eng.cfg.Model.PlanPrefill(1, 512)
		} else {
			p = w.eng.cfg.Model.PlanDecode(w.eng.DecodeBatch(), 512)
		}
		plan = &p
	}
	cost := w.costs.get(plan, env)
	class := power.AVXHeavy
	if cost.AMXBusy > 0.08 {
		class = power.AMXHeavy
	}
	return machine.Demand{
		Class: class,
		Util:  cost.Util,
		BWGBs: w.demands.get(plan, env),
	}
}

// Step implements machine.Workload: execute for dt under env,
// completing as many iteration boundaries as fit.
func (w *Worker) Step(env machine.Env, now, dt float64) machine.Usage {
	var u machine.Usage
	// entered is the job already in flight when the step began. A step
	// that pulls a new job is never steady: the machine estimated this
	// step's demand from the pre-pull state, so the next step's
	// environment will differ even though the job now runs smoothly.
	entered := w.current
	steady := false
	iter := 0
	left := dt
	for left > 1e-12 {
		iter++
		j := w.ensureJob(now + (dt - left))
		if j == nil {
			steady = iter == 1
			w.idleTime += left
			u.Util += spinUtil * left
			break
		}
		cost := w.costs.get(&j.plan, env)
		w.lastCostS = cost.TotalS
		// Clamp on a local: the cache slot keeps the model's value.
		ts := cost.TotalS
		if ts <= 0 {
			ts = 1e-9
		}
		need := j.remaining * ts
		var ran float64
		if need <= left {
			ran = need
			j.remaining = 0
		} else {
			ran = left
			j.remaining -= left / ts
		}
		frac := ran / ts
		u.Flops += (j.plan.AMXFlops + j.plan.AVXFlops) * frac
		u.AMXFlops += j.plan.AMXFlops * frac
		u.AVXFlops += j.plan.AVXFlops * frac
		u.DRAMBytes += cost.DRAMBytes * frac
		u.AMXBusy += cost.AMXBusy * ran
		u.AVXBusy += cost.AVXBusy * ran
		u.Util += cost.Util * ran
		u.Breakdown.Weighted(&cost.Breakdown, ran)
		w.busyTime += ran
		left -= ran

		if j.remaining <= 1e-9 {
			steady = false
			done := now + (dt - left)
			if j.traced {
				j.execMembw, j.execThrottle = stallFractions(&j.plan, env, ts)
			}
			if w.phase == llm.Prefill {
				w.eng.onPrefillDone(j, done)
			} else {
				w.eng.onDecodeDone(j, done)
			}
			u.Work += float64(j.plan.Tokens)
			w.completed++
			w.current = nil
		} else {
			steady = iter == 1 && j == entered
		}
	}
	w.lastSteady = steady
	// Convert time-weighted sums to dt-averages.
	if dt > 0 {
		u.AMXBusy /= dt
		u.AVXBusy /= dt
		u.Util /= dt
	}
	u.Breakdown.Normalize()
	return u
}

// stallFractions decomposes an iteration's execution time by roofline
// counterfactual: re-costing the plan under infinite bandwidth isolates
// the memory-bandwidth stall, then additionally lifting the frequency
// to the scalar license isolates the AU license throttle; what remains
// is the pure compute floor. totalS is the iteration's measured (clamped)
// cost. Pure function of (plan, env, totalS) — it reads nothing mutable
// and writes nothing, so tracing cannot change simulation results.
// Fractions are clamped to [0,1] and to a sum <= 1 so the charge-back
// always conserves the measured interval.
func stallFractions(p *llm.IterationPlan, env machine.Env, totalS float64) (membw, throttle float64) {
	if totalS <= 0 {
		return 0, 0
	}
	envNoBW := env
	envNoBW.BWGBs = math.Inf(1)
	tNoBW := llm.CostIteration(*p, envNoBW).TotalS
	envNoThr := envNoBW
	if s := env.Plat.License.Scalar; s > envNoThr.GHz {
		envNoThr.GHz = s
	}
	tNoThr := llm.CostIteration(*p, envNoThr).TotalS
	membw = (totalS - tNoBW) / totalS
	throttle = (tNoBW - tNoThr) / totalS
	if membw < 0 {
		membw = 0
	}
	if throttle < 0 {
		throttle = 0
	}
	if sum := membw + throttle; sum > 1 {
		membw /= sum
		throttle /= sum
	}
	return membw, throttle
}

// CanQuiesce implements machine.Quiescer. A worker step is quiescent in
// two shapes, both requiring that the last Step was a single clean loop
// pass (lastSteady):
//
//   - starved: no job in flight and the engine feed is still empty, so
//     the next step spins identically;
//   - mid-iteration: the in-flight job has strictly more than one full
//     step of work left, so the next step burns the same cost slice
//     without crossing an iteration boundary.
//
// The environment is guaranteed unchanged by the caller (the machine
// invalidates its capture on any placement/COS/fault mutation), so
// lastCostS — the TotalS of the cached cost the next step would
// recompute — is still exact.
func (w *Worker) CanQuiesce(dt float64) bool {
	if !w.lastSteady {
		return false
	}
	j := w.current
	if j == nil {
		if w.phase == llm.Prefill {
			return w.eng.QueueLen() == 0
		}
		return w.eng.DecodeBatch() == 0
	}
	ts := w.lastCostS
	if ts <= 0 {
		ts = 1e-9
	}
	if j.remaining*ts <= dt {
		return false // the iteration boundary lands inside the next step
	}
	// The post-step remaining must clear the completion epsilon too.
	return j.remaining-dt/ts > 1e-9
}

// CanQuiesceN implements machine.BulkQuiescer: whether the next k
// steps of dt are all provably quiescent at once. Only the starved
// shape qualifies — an empty feed stays empty for any k without help —
// so a worker with a job in flight (whose remaining-work countdown
// could cross an iteration boundary mid-span) always refuses and falls
// back to per-step advancement.
func (w *Worker) CanQuiesceN(dt float64, k int) bool {
	if w.current != nil {
		return false
	}
	if w.CanQuiesce(dt) {
		return true
	}
	// Never-worked starved: a worker that has done no productive work
	// (lastSteady unset, zero busy time — idle time may have accrued
	// through earlier AdvanceQuiescedN spans) spins identically from
	// its next step when its feed is empty — the shape archetype
	// capture adoption (machine.AdoptCapture) relies on.
	if !w.lastSteady && w.busyTime == 0 {
		if w.phase == llm.Prefill {
			return w.eng.QueueLen() == 0
		}
		return w.eng.DecodeBatch() == 0
	}
	return false
}

// AdvanceQuiescedN implements machine.BulkQuiescer: k starved steps in
// one multiply. The k*dt product differs from k iterated additions
// only in floating-point rounding; this path belongs to the cluster's
// approximate archetype mode, never the byte-identical one.
func (w *Worker) AdvanceQuiescedN(dt float64, k int) {
	w.idleTime += float64(k) * dt
}

// AdvanceQuiesced implements machine.Quiescer: the exact state
// mutation Step would apply on the quiescent path, with the same
// floating-point operations.
func (w *Worker) AdvanceQuiesced(dt float64) {
	j := w.current
	if j == nil {
		w.idleTime += dt
		return
	}
	ts := w.lastCostS
	if ts <= 0 {
		ts = 1e-9
	}
	j.remaining -= dt / ts
	w.busyTime += dt
}
