// Quiescence-aware fast-forward (DESIGN.md §9).
//
// A full Step records a capture: the per-task accumulator increments it
// produced and the solved power state. While every stepped workload
// reports that its next step is provably identical (CanQuiesce) and the
// governor's thermal average stays on the same side of the near-TDP
// threshold (ReplayThermal), StepN replays the capture instead of
// re-running demand estimation, the governor solve, and bandwidth
// arbitration. Replay re-applies the captured increment *values* as
// ordinary additions — never a closed-form k×increment product — so the
// accumulated floating-point state is bit-identical to sequential
// stepping. Any machine-API mutation invalidates the capture.
package machine

import (
	"sync/atomic"

	"aum/internal/power"
	"aum/internal/topdown"
)

// Quiescer is an optional Workload extension. A workload that
// implements it can declare a step quiescent: given the same
// environment as the machine's last full step, its next Step would
// return exactly the same Usage and mutate only state it can advance
// itself through AdvanceQuiesced. Workloads that never quiesce simply
// don't implement the interface and always take the full path.
type Quiescer interface {
	Workload
	// CanQuiesce reports whether the next Step(dt) under an unchanged
	// environment is provably identical to the last one. It must not
	// mutate any state.
	CanQuiesce(dt float64) bool
	// AdvanceQuiesced applies exactly the internal-state mutation that
	// Step(dt) would have applied, using the same floating-point
	// operations, without recomputing the Usage.
	AdvanceQuiesced(dt float64)
}

// ffOff is the global fast-forward kill switch, default off (i.e.
// fast-forward enabled). Stored inverted so the zero value enables the
// optimization.
var ffOff atomic.Bool

// SetFastForward toggles quiescence-aware fast-forward globally.
// Results are byte-identical either way; disabling only costs
// wall-clock. Intended for A/B verification and debugging.
func SetFastForward(enabled bool) { ffOff.Store(!enabled) }

// FastForward reports whether quiescence-aware fast-forward is enabled.
func FastForward() bool { return !ffOff.Load() }

// taskInc is the captured per-task accumulator increment of one step.
// Each field holds the already-multiplied product the full Step added,
// so replay is a plain re-addition.
type taskInc struct {
	work       float64
	flops      float64
	amxFlops   float64
	avxFlops   float64
	dramBytes  float64
	freqInc    float64 // env.GHz * dt
	utilInc    float64 // u.Util * dt
	amxBusyInc float64 // u.AMXBusy * dt
	avxBusyInc float64 // u.AVXBusy * dt
	energyInc  float64 // eff * CoreWatts(...) * dt
	breakdown  topdown.Breakdown
}

// scaleBreakdown stores b scaled by dt into d. Every product is rounded
// by an explicit conversion, which forbids the compiler from fusing it
// with the later accumulation into an FMA: Step and replayStep must add
// the identical value.
func scaleBreakdown(d, b *topdown.Breakdown, dt float64) {
	d.Retiring = float64(b.Retiring * dt)
	d.BadSpec = float64(b.BadSpec * dt)
	d.FrontendBound = float64(b.FrontendBound * dt)
	d.BackendBound = float64(b.BackendBound * dt)
	d.CoreBound = float64(b.CoreBound * dt)
	d.MemBound = float64(b.MemBound * dt)
	d.Serialize = float64(b.Serialize * dt)
	d.Ports = float64(b.Ports * dt)
	d.L1Bound = float64(b.L1Bound * dt)
	d.L2Bound = float64(b.L2Bound * dt)
	d.LLCBound = float64(b.LLCBound * dt)
	d.DRAMBound = float64(b.DRAMBound * dt)
	d.DRAMBandwidth = float64(b.DRAMBandwidth * dt)
	d.DRAMLatency = float64(b.DRAMLatency * dt)
}

// addBreakdown accumulates a pre-scaled increment into d.
func addBreakdown(d, inc *topdown.Breakdown) {
	d.Retiring += inc.Retiring
	d.BadSpec += inc.BadSpec
	d.FrontendBound += inc.FrontendBound
	d.BackendBound += inc.BackendBound
	d.CoreBound += inc.CoreBound
	d.MemBound += inc.MemBound
	d.Serialize += inc.Serialize
	d.Ports += inc.Ports
	d.L1Bound += inc.L1Bound
	d.L2Bound += inc.L2Bound
	d.LLCBound += inc.LLCBound
	d.DRAMBound += inc.DRAMBound
	d.DRAMBandwidth += inc.DRAMBandwidth
	d.DRAMLatency += inc.DRAMLatency
}

// stepCapture records everything a full Step produced that a replayed
// step needs. sol.FreqGHz and cosGrants alias governor/arbiter scratch
// buffers; they stay valid exactly until the next full Step, which also
// refreshes the capture.
type stepCapture struct {
	valid bool
	empty bool // the zero-task fast path
	dt    float64
	n     int

	watts     float64 // lastWatts after the step
	linkUtil  float64
	energyInc float64 // package energy added per step

	sol       power.Solution
	cosGrants []float64

	stepped []bool
	quiesce []Quiescer
	inc     []taskInc
}

// invalidateFF drops the step capture. Every machine-API mutation that
// could change the next step's dynamics calls it.
func (m *Machine) invalidateFF() { m.ff.valid = false }

// InvalidateFastForward drops the step capture from outside the
// machine API. Layers that mutate a workload's feeding state behind
// the machine's back — the fleet harvesting a crashed node's serving
// engine — must call it, or a stale capture could replay a step whose
// quiescence proof no longer holds.
func (m *Machine) InvalidateFastForward() { m.invalidateFF() }

// FFSteps returns how many steps were advanced via fast-forward replay
// rather than a full solve, so observability can report how much
// simulated time was fast-forwarded.
func (m *Machine) FFSteps() uint64 { return m.ffSteps }

// canReplay reports whether the next step may be replayed from the
// capture. All checks are pure except the final gov.ReplayThermal,
// which commits the thermal advance — it must stay last so a refusal
// leaves the machine untouched for the full Step that follows.
func (m *Machine) canReplay(dt float64) bool {
	c := &m.ff
	if !c.valid || c.dt != dt || c.n != len(m.tasks) {
		return false
	}
	if c.empty {
		return true
	}
	for i := range c.stepped {
		if !c.stepped[i] {
			continue
		}
		q := c.quiesce[i]
		if q == nil || !q.CanQuiesce(dt) {
			return false
		}
	}
	return m.gov.ReplayThermal(dt)
}

// replayStep advances one tick from the capture: identical accumulator
// additions and identical telemetry recording.
func (m *Machine) replayStep(dt float64) {
	c := &m.ff
	m.ffSteps++
	if c.empty {
		m.lastWatts = c.watts
		m.energyJ += c.energyInc
		m.now += dt
		return
	}
	for i, t := range m.tasks {
		if !c.stepped[i] {
			continue
		}
		c.quiesce[i].AdvanceQuiesced(dt)
		inc := &c.inc[i]
		st := &t.stats
		st.TimeS += dt
		st.Work += inc.work
		st.Flops += inc.flops
		st.AMXFlops += inc.amxFlops
		st.AVXFlops += inc.avxFlops
		st.DRAMBytes += inc.dramBytes
		st.FreqIntegral += inc.freqInc
		st.UtilIntegral += inc.utilInc
		st.AMXBusyInt += inc.amxBusyInc
		st.AVXBusyInt += inc.avxBusyInc
		st.EnergyJ += inc.energyInc
		addBreakdown(&st.Breakdown, &inc.breakdown)
	}
	m.lastWatts = c.watts
	m.lastLinkUtil = c.linkUtil
	m.energyJ += c.energyInc
	m.now += dt
	if m.tel != nil {
		// The captured solve/demand state is exactly what a sequential
		// step would have recomputed; scratch demands/regionOf are
		// untouched during replay.
		m.tel.record(m, c.sol, c.cosGrants, c.linkUtil, m.scratch.demands, m.scratch.regionOf)
		m.tel.ffSteps.Inc()
	}
}

// StepN advances the simulation by k steps of dt seconds each,
// replaying quiescent steps from the last full step's capture when
// fast-forward is enabled. StepN(dt, k) is byte-identical to k
// sequential Step(dt) calls.
func (m *Machine) StepN(dt float64, k int) {
	ff := FastForward()
	for ; k > 0; k-- {
		if ff && m.canReplay(dt) {
			m.replayStep(dt)
		} else {
			m.Step(dt)
		}
	}
}

// capture records the just-completed full step so subsequent quiescent
// steps can be replayed. Called at the end of Step.
func (m *Machine) captureEmpty(dt float64) {
	c := &m.ff
	c.valid = true
	c.empty = true
	c.dt = dt
	c.n = 0
	c.watts = m.lastWatts
	c.energyInc = m.lastWatts * dt
}

// BulkQuiescer is an optional Quiescer extension: a workload that can
// prove — and apply — k identical quiescent steps at once. The bulk
// application may use k×dt products, so it is *approximately* equal to
// k iterated AdvanceQuiesced calls (same values up to floating-point
// rounding). The cluster's archetype-memoization path (DESIGN.md §14)
// is the only caller; byte-identical modes never use it.
type BulkQuiescer interface {
	Quiescer
	// CanQuiesceN reports whether the next k steps of dt under an
	// unchanged environment are all provably identical to the last full
	// step. It must not mutate any state.
	CanQuiesceN(dt float64, k int) bool
	// AdvanceQuiescedN applies the aggregate internal-state mutation of
	// k quiescent steps.
	AdvanceQuiescedN(dt float64, k int)
}

// CoarseReady reports whether SkipQuiescent could currently succeed for
// spans of step dt: the capture is valid and every stepped task can
// bulk-quiesce. Fleet code uses it to decide when a machine may leave
// the per-barrier stepping set.
func (m *Machine) CoarseReady(dt float64) bool {
	c := &m.ff
	if !FastForward() || !c.valid || c.dt != dt || c.n != len(m.tasks) {
		return false
	}
	if m.tel != nil {
		return false
	}
	if c.empty {
		return true
	}
	for i := range c.stepped {
		if !c.stepped[i] {
			continue
		}
		bq, ok := c.quiesce[i].(BulkQuiescer)
		if !ok || !bq.CanQuiesceN(dt, 1) {
			return false
		}
	}
	return true
}

// SkipQuiescent advances k steps of dt in O(1) instead of O(k): every
// captured per-task increment is applied as a k× product and the
// governor's thermal average moves in closed form (SkipThermal). The
// result equals k replayed steps up to floating-point rounding — this
// is the approximate fast path of cluster archetype memoization
// (DESIGN.md §14), never used by byte-identical modes. Returns false,
// leaving the machine untouched, when any task refuses bulk quiescence
// or the thermal predicate would flip mid-span; the caller then falls
// back to StepN.
func (m *Machine) SkipQuiescent(dt float64, k int) bool {
	if k <= 0 {
		return true
	}
	c := &m.ff
	if !FastForward() || !c.valid || c.dt != dt || c.n != len(m.tasks) {
		return false
	}
	if m.tel != nil {
		return false
	}
	kk := float64(k)
	if !c.empty {
		for i := range c.stepped {
			if !c.stepped[i] {
				continue
			}
			bq, ok := c.quiesce[i].(BulkQuiescer)
			if !ok || !bq.CanQuiesceN(dt, k) {
				return false
			}
		}
		if !m.gov.SkipThermal(dt, k) {
			return false
		}
		for i, t := range m.tasks {
			if !c.stepped[i] {
				continue
			}
			c.quiesce[i].(BulkQuiescer).AdvanceQuiescedN(dt, k)
			inc := &c.inc[i]
			st := &t.stats
			st.TimeS += kk * dt
			st.Work += kk * inc.work
			st.Flops += kk * inc.flops
			st.AMXFlops += kk * inc.amxFlops
			st.AVXFlops += kk * inc.avxFlops
			st.DRAMBytes += kk * inc.dramBytes
			st.FreqIntegral += kk * inc.freqInc
			st.UtilIntegral += kk * inc.utilInc
			st.AMXBusyInt += kk * inc.amxBusyInc
			st.AVXBusyInt += kk * inc.avxBusyInc
			st.EnergyJ += kk * inc.energyInc
			st.Breakdown.Weighted(&inc.breakdown, kk)
		}
		m.lastLinkUtil = c.linkUtil
	}
	m.lastWatts = c.watts
	m.energyJ += kk * c.energyInc
	m.now += kk * dt
	m.ffSteps += uint64(k)
	return true
}

// ReplayCapture is an exported, self-contained copy of a machine's step
// capture, used to intern one archetype's quiescent step fleet-wide:
// CloneCapture takes it from a stepped representative, AdoptCapture
// grafts it onto an identically-constructed machine that has never
// stepped. Slices are deep-copied so the snapshot survives the donor's
// next full Step.
type ReplayCapture struct {
	ok        bool
	dt        float64
	n         int
	empty     bool
	watts     float64
	linkUtil  float64
	energyInc float64
	stepped   []bool
	inc       []taskInc
	preWatts  float64 // donor governor's thermal record
	fired     bool
}

// Valid reports whether the capture holds a usable snapshot.
func (rc ReplayCapture) Valid() bool { return rc.ok }

// CloneCapture snapshots the machine's current step capture for
// archetype interning. It succeeds only when the machine is coarse-
// ready — the capture is valid and every stepped task bulk-quiesces —
// so the snapshot provably describes a self-repeating (idle) step.
func (m *Machine) CloneCapture(dt float64) (ReplayCapture, bool) {
	if !m.CoarseReady(dt) {
		return ReplayCapture{}, false
	}
	c := &m.ff
	rc := ReplayCapture{
		ok: true, dt: c.dt, n: c.n, empty: c.empty,
		watts: c.watts, linkUtil: c.linkUtil, energyInc: c.energyInc,
		stepped: append([]bool(nil), c.stepped...),
		inc:     append([]taskInc(nil), c.inc...),
	}
	rc.preWatts, rc.fired = m.gov.ThermalRecord()
	return rc, true
}

// AdoptCapture grafts an archetype's capture onto this machine so its
// idle prefix can be advanced by SkipQuiescent without ever running a
// full step. The machine must never have stepped (virgin) and must
// have the same task layout as the donor; quiescer handles are rebound
// to the machine's own workloads. The caller owns the soundness
// precondition that donor and adopter are identically constructed
// (same platform, manager layout, scenario, no co-runner) — cluster
// archetype memoization derives it from the machine-spec class.
func (m *Machine) AdoptCapture(rc ReplayCapture) bool {
	if !rc.ok || m.now != 0 || m.ffSteps != 0 || m.energyJ != 0 {
		return false
	}
	if len(m.tasks) != rc.n || m.tel != nil {
		return false
	}
	c := &m.ff
	c.valid = true
	c.empty = rc.empty
	c.dt = rc.dt
	c.n = rc.n
	c.watts = rc.watts
	c.linkUtil = rc.linkUtil
	c.energyInc = rc.energyInc
	c.stepped = append(c.stepped[:0], rc.stepped...)
	c.inc = append(c.inc[:0], rc.inc...)
	c.quiesce = c.quiesce[:0]
	for i, t := range m.tasks {
		var q Quiescer
		if i < len(rc.stepped) && rc.stepped[i] {
			var okq bool
			if q, okq = t.wl.(Quiescer); !okq {
				c.valid = false
				return false
			}
		}
		c.quiesce = append(c.quiesce, q)
	}
	c.sol = power.Solution{}
	c.cosGrants = nil
	m.lastWatts = rc.watts
	m.lastLinkUtil = rc.linkUtil
	m.gov.AdoptThermal(rc.preWatts, rc.fired)
	return true
}
