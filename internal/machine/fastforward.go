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
	// CanQuiesce reports whether the next Step under an unchanged
	// environment is provably identical to the last one. It must not
	// mutate any state.
	CanQuiesce() bool
	// AdvanceQuiesced applies exactly the internal-state mutation that
	// Step would have applied, using the same floating-point
	// operations, without recomputing the Usage.
	AdvanceQuiesced()
}

// taskInc is the captured per-task accumulator increment of one step.
// Each field holds the already-multiplied product the full Step added,
// so replay is a plain re-addition.
type taskInc struct {
	work       float64
	flops      float64
	amxFlops   float64
	avxFlops   float64
	dramBytes  float64
	freqInc    float64 // env.GHz * DT
	utilInc    float64 // u.Util * DT
	amxBusyInc float64 // u.AMXBusy * DT
	avxBusyInc float64 // u.AVXBusy * DT
	energyInc  float64 // eff * CoreWatts(...) * DT
	breakdown  topdown.Breakdown
}

// scaleBreakdown stores b scaled by DT into d. Every product is rounded
// by an explicit conversion, which forbids the compiler from fusing it
// with the later accumulation into an FMA: Step and replayStep must add
// the identical value.
func scaleBreakdown(d, b *topdown.Breakdown) {
	d.Retiring = float64(b.Retiring * DT)
	d.BadSpec = float64(b.BadSpec * DT)
	d.FrontendBound = float64(b.FrontendBound * DT)
	d.BackendBound = float64(b.BackendBound * DT)
	d.CoreBound = float64(b.CoreBound * DT)
	d.MemBound = float64(b.MemBound * DT)
	d.Serialize = float64(b.Serialize * DT)
	d.Ports = float64(b.Ports * DT)
	d.L1Bound = float64(b.L1Bound * DT)
	d.L2Bound = float64(b.L2Bound * DT)
	d.LLCBound = float64(b.LLCBound * DT)
	d.DRAMBound = float64(b.DRAMBound * DT)
	d.DRAMBandwidth = float64(b.DRAMBandwidth * DT)
	d.DRAMLatency = float64(b.DRAMLatency * DT)
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

// invalidateFF drops the step capture and the step layout. Every
// machine-API mutation that could change the next step's dynamics
// calls it.
func (m *Machine) invalidateFF() {
	m.ff.valid = false
	m.layout.valid = false
}

// captureFits reports whether the capture describes a full step over
// the current task set, the precondition of every replay path.
func (m *Machine) captureFits() bool {
	c := &m.ff
	return c.valid && c.n == len(m.tasks)
}

// InvalidateCapture drops the step capture from outside the
// machine API. Layers that mutate a workload's feeding state behind
// the machine's back — the fleet harvesting a crashed node's serving
// engine — must call it, or a stale capture could replay a step whose
// quiescence proof no longer holds.
func (m *Machine) InvalidateCapture() { m.invalidateFF() }

// FFSteps returns how many steps were advanced via fast-forward replay
// rather than a full solve, so observability can report how much
// simulated time was fast-forwarded.
func (m *Machine) FFSteps() uint64 { return m.ffSteps }

// canReplay reports whether the next step may be replayed from the
// capture. All checks are pure except the final gov.ReplayThermal,
// which commits the thermal advance — it must stay last so a refusal
// leaves the machine untouched for the full Step that follows.
func (m *Machine) canReplay() bool {
	if !m.captureFits() {
		return false
	}
	c := &m.ff
	if c.empty {
		return true
	}
	for i := range c.stepped {
		if !c.stepped[i] {
			continue
		}
		q := c.quiesce[i]
		if q == nil || !q.CanQuiesce() {
			return false
		}
	}
	return m.gov.ReplayThermal(DT)
}

// replayStep advances one tick from the capture with identical
// accumulator additions. It publishes nothing: every gauge already
// holds the captured step's value and no transition can fire, so
// StepN adds the replayed ticks to the step counters in one batch.
func (m *Machine) replayStep() {
	c := &m.ff
	m.ffSteps++
	if c.empty {
		m.lastWatts = c.watts
		m.energyJ += c.energyInc
		m.tick++
		return
	}
	for i, t := range m.tasks {
		if !c.stepped[i] {
			continue
		}
		c.quiesce[i].AdvanceQuiesced()
		inc := &c.inc[i]
		st := &t.stats
		st.TimeS += DT
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
	m.tick++
}

// StepN advances the simulation by k ticks, replaying quiescent steps
// from the last full step's capture. StepN(k) is byte-identical to k
// sequential Step calls, telemetry totals included.
func (m *Machine) StepN(k int) {
	var replayed, throttled uint64
	for ; k > 0; k-- {
		if !m.canReplay() {
			m.Step()
			continue
		}
		m.replayStep()
		if !m.ff.empty {
			replayed++
			if m.ff.sol.Throttled {
				throttled++
			}
		}
	}
	if replayed > 0 {
		m.tel.replayed(replayed, throttled)
	}
}

// StepTo is the stepping loop colo and the fleet share (DESIGN.md §9):
// it advances the machine to tick end. due fires whatever is due at
// the current tick and returns the next tick at which anything might
// fall due; until then the machine steps back to back through StepN,
// which still re-checks quiescence every tick. At least one tick
// passes per call of due, so the loop always advances.
func (m *Machine) StepTo(end int64, due func(tick int64) (next int64, err error)) error {
	for t := m.tick; t < end; t = m.tick {
		next, err := due(t)
		if err != nil {
			return err
		}
		m.StepN(int(max(min(next, end)-t, 1)))
	}
	return nil
}

// BulkQuiescer is an optional Quiescer extension: a workload that can
// prove — and apply — k identical quiescent steps at once. The bulk
// application may use k×DT products, so it is *approximately* equal to
// k iterated AdvanceQuiesced calls (same values up to floating-point
// rounding). The cluster's archetype-memoization path (DESIGN.md §14)
// is the only caller; byte-identical modes never use it.
type BulkQuiescer interface {
	Quiescer
	// CanQuiesceN reports whether the next k steps under an unchanged
	// environment are all provably identical to the last full step. It
	// must not mutate any state.
	CanQuiesceN(k int) bool
	// AdvanceQuiescedN applies the aggregate internal-state mutation of
	// k quiescent steps.
	AdvanceQuiescedN(k int)
}

// CoarseReady reports whether SkipQuiescent could currently succeed:
// the capture is valid and every stepped task can bulk-quiesce. Fleet
// code uses it to decide when a machine may leave the per-barrier
// stepping set.
func (m *Machine) CoarseReady() bool {
	return m.bulkQuiescent(1)
}

// bulkQuiescent reports whether the capture fits, no telemetry is
// attached, and every stepped task can bulk-quiesce k steps. It is pure.
func (m *Machine) bulkQuiescent(k int) bool {
	if !m.captureFits() || m.tel != nil {
		return false
	}
	c := &m.ff
	if c.empty {
		return true
	}
	for i := range c.stepped {
		if !c.stepped[i] {
			continue
		}
		bq, ok := c.quiesce[i].(BulkQuiescer)
		if !ok || !bq.CanQuiesceN(k) {
			return false
		}
	}
	return true
}

// SkipQuiescent advances k ticks in O(1) instead of O(k): every
// captured per-task increment is applied as a k× product and the
// governor's thermal average moves in closed form (SkipThermal). The
// result equals k replayed steps up to floating-point rounding — this
// is the approximate fast path of cluster archetype memoization
// (DESIGN.md §14), never used by byte-identical modes. Returns false,
// leaving the machine untouched, when any task refuses bulk quiescence
// or the thermal predicate would flip mid-span; the caller then falls
// back to StepN.
func (m *Machine) SkipQuiescent(k int) bool {
	if k <= 0 {
		return true
	}
	if !m.bulkQuiescent(k) {
		return false
	}
	c := &m.ff
	kk := float64(k)
	if !c.empty {
		if !m.gov.SkipThermal(DT, k) {
			return false
		}
		for i, t := range m.tasks {
			if !c.stepped[i] {
				continue
			}
			c.quiesce[i].(BulkQuiescer).AdvanceQuiescedN(k)
			inc := &c.inc[i]
			st := &t.stats
			st.TimeS += kk * DT
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
	m.tick += int64(k)
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
func (m *Machine) CloneCapture() (ReplayCapture, bool) {
	if !m.CoarseReady() {
		return ReplayCapture{}, false
	}
	c := &m.ff
	rc := ReplayCapture{
		ok: true, n: c.n, empty: c.empty,
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
	if !rc.ok || m.tick != 0 || m.ffSteps != 0 || m.energyJ != 0 {
		return false
	}
	if len(m.tasks) != rc.n || m.tel != nil {
		return false
	}
	c := &m.ff
	c.valid = true
	c.empty = rc.empty
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
