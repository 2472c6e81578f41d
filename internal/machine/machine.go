// Package machine simulates one AU-enabled CPU socket: physical cores
// with SMT threads, frequency regions solved by the power governor, a
// way-partitioned LLC, and arbitrated memory bandwidth.
//
// The machine advances in fixed time steps. Each step it (1) asks every
// task for its resource demand, (2) solves region frequencies under
// license caps and the TDP, (3) arbitrates DRAM bandwidth under MBA
// throttles, and (4) lets every task execute for the step under its
// final environment, accumulating the cycle-level counters that
// perfmon later turns into the paper's top-down metrics.
//
// The machine is the stand-in for the paper's production Xeons: AUM
// only ever touches it through placements (cpuset), class-of-service
// configuration (CAT/MBA), and the statistics it exports (perf).
package machine

import (
	"fmt"
	"math"

	"aum/internal/cache"
	"aum/internal/membw"
	"aum/internal/platform"
	"aum/internal/power"
	"aum/internal/topdown"
)

// DT is the simulator's fixed time step, 1 ms (DESIGN.md §4, decision
// 2): fine against the controller's 50 ms interval and ~100 ms token
// SLOs. A machine's clock counts whole ticks of DT; tick k starts at
// Time(k).
const DT = 1e-3

// Time returns the start of tick k in seconds. Every clock in the
// simulator reads time through it, so two clocks at the same tick agree
// bit for bit however their steps were grouped.
func Time(k int64) float64 { return float64(k) * DT }

// TickOf returns the first tick that starts at or after t:
// Time(TickOf(t)-1) < t <= Time(TickOf(t)). It is exact with respect to
// Time, so a loop that stops at the tick of an event's time is never
// late for it. Times at or below 0 map to tick 0; +Inf, NaN and times
// past any reachable tick map to math.MaxInt64.
func TickOf(t float64) int64 {
	if !(t < Time(1<<62)) {
		return math.MaxInt64
	}
	k := int64(max(math.Ceil(t/DT), 0))
	for k > 0 && Time(k-1) >= t {
		k--
	}
	for Time(k) < t {
		k++
	}
	return k
}

// Env is the execution environment the machine grants a task for one
// step.
type Env struct {
	// Plat is the machine's own platform, shared by pointer so Env
	// stays small; it is read-only, so never write through it.
	Plat         *platform.Platform
	Cores        int     // physical cores allocated
	GHz          float64 // region frequency
	ComputeShare float64 // execution-port share (<1 when an SMT sibling is active)
	LLCMB        float64 // granted LLC capacity
	L2MB         float64 // granted private-cache capacity
	BWGBs        float64 // granted DRAM bandwidth
	LinkUtil     float64 // total link utilization last step (for latency penalties)
}

// Demand is what a task would consume unconstrained during the next
// step.
type Demand struct {
	Class power.Class
	Util  float64 // unit utilization (fraction of cycles with execution demand)
	BWGBs float64 // unconstrained DRAM traffic rate
}

// Usage reports what a task actually did during a step.
type Usage struct {
	Work      float64 // application-defined work units completed
	Flops     float64
	AMXFlops  float64
	AVXFlops  float64
	DRAMBytes float64
	Util      float64           // realized unit utilization
	AMXBusy   float64           // fraction of cycles the AMX unit was busy (tma_amx_busy)
	AVXBusy   float64           // fraction of cycles the AVX units were busy
	Breakdown topdown.Breakdown // cycle distribution over the step
}

// Workload is implemented by every application model that can run on
// the machine.
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Demand returns the unconstrained resource appetite under env.
	Demand(env Env) Demand
	// Step executes for one tick of DT seconds starting at now under
	// env.
	Step(env Env, now float64) Usage
}

// TaskID identifies a task on a machine.
type TaskID int

// Placement pins a task to a contiguous physical core range, an SMT
// slot, and a class of service. Contiguous ranges mirror the paper's
// processor divisions ("0-11", "12-15", "16-23" in Table III).
type Placement struct {
	CoreLo, CoreHi int // inclusive physical core range
	SMTSlot        int // 0 = primary thread, 1 = sibling hyperthread
	COS            int // class of service index
}

// Cores returns the number of physical cores in the placement.
func (p Placement) Cores() int {
	if p.CoreHi < p.CoreLo {
		return 0
	}
	return p.CoreHi - p.CoreLo + 1
}

func (p Placement) overlaps(o Placement) bool {
	return p.Cores() > 0 && o.Cores() > 0 && p.CoreLo <= o.CoreHi && o.CoreLo <= p.CoreHi
}

func (p Placement) contains(o Placement) bool {
	return p.CoreLo <= o.CoreLo && o.CoreHi <= p.CoreHi
}

// TaskStats accumulates a task's activity. All fields are totals since
// the task was added (or since the last ResetStats).
type TaskStats struct {
	TimeS        float64
	Work         float64
	Flops        float64
	AMXFlops     float64
	AVXFlops     float64
	DRAMBytes    float64
	FreqIntegral float64           // integral of region frequency over time (GHz*s)
	UtilIntegral float64           // integral of realized utilization
	AMXBusyInt   float64           // integral of the AMX busy fraction
	AVXBusyInt   float64           // integral of the AVX busy fraction
	EnergyJ      float64           // attributed core energy (power model at the task's class/util/freq)
	Breakdown    topdown.Breakdown // DT-weighted; normalize before reading
}

// MeanWatts returns the task's attributed average core power.
func (s TaskStats) MeanWatts() float64 {
	if s.TimeS <= 0 {
		return 0
	}
	return s.EnergyJ / s.TimeS
}

// AMXCycleRatio returns the time-average fraction of cycles with the
// AMX unit busy — the paper's tma_amx_busy metric (Table II).
func (s TaskStats) AMXCycleRatio() float64 {
	if s.TimeS <= 0 {
		return 0
	}
	return s.AMXBusyInt / s.TimeS
}

// AVXCycleRatio returns the time-average AVX busy fraction.
func (s TaskStats) AVXCycleRatio() float64 {
	if s.TimeS <= 0 {
		return 0
	}
	return s.AVXBusyInt / s.TimeS
}

// FPAMXRatio returns the fraction of floating-point work retired by the
// AMX unit — the paper's tma_fp_amx / tma_fp_arith metric.
func (s TaskStats) FPAMXRatio() float64 {
	if s.Flops <= 0 {
		return 0
	}
	return s.AMXFlops / s.Flops
}

// MeanGHz returns the time-average frequency the task ran at.
func (s TaskStats) MeanGHz() float64 {
	if s.TimeS <= 0 {
		return 0
	}
	return s.FreqIntegral / s.TimeS
}

// WorkRate returns work units per second.
func (s TaskStats) WorkRate() float64 {
	if s.TimeS <= 0 {
		return 0
	}
	return s.Work / s.TimeS
}

// NormalizedBreakdown returns the task's top-down breakdown normalized
// to fractions.
func (s TaskStats) NormalizedBreakdown() topdown.Breakdown {
	b := s.Breakdown
	b.Normalize()
	return b
}

// Sub returns the difference s - prev, used by controllers to measure
// one control interval.
func (s TaskStats) Sub(prev TaskStats) TaskStats {
	d := s
	d.TimeS -= prev.TimeS
	d.Work -= prev.Work
	d.Flops -= prev.Flops
	d.AMXFlops -= prev.AMXFlops
	d.AVXFlops -= prev.AVXFlops
	d.DRAMBytes -= prev.DRAMBytes
	d.FreqIntegral -= prev.FreqIntegral
	d.UtilIntegral -= prev.UtilIntegral
	d.AMXBusyInt -= prev.AMXBusyInt
	d.AVXBusyInt -= prev.AVXBusyInt
	d.EnergyJ -= prev.EnergyJ
	var b topdown.Breakdown
	b.Weighted(&s.Breakdown, 1)
	b.Weighted(&prev.Breakdown, -1)
	d.Breakdown = b
	return d
}

// COSConfig is one class of service: an LLC way mask and an MBA
// throttle, the two RDT knobs of Table III.
type COSConfig struct {
	Ways    cache.Mask
	MBAFrac float64 // fraction of link bandwidth this class may use
}

type task struct {
	id    TaskID
	wl    Workload
	place Placement
	stats TaskStats
}

// stepScratch holds every per-step working buffer so that steady-state
// stepping allocates nothing. Buffers are sized on first use and grow
// only when the task population does.
type stepScratch struct {
	demands   []Demand
	loads     []power.RegionLoad
	cosDemand []float64 // per occupied class
	cosGrants []float64 // per class, NumCOS long
	taskGrant []float64
	dem       []float64 // one class's member demands
	cosArb    membw.Arbiter
	taskArb   membw.Arbiter
}

// Machine is one simulated socket.
type Machine struct {
	plat platform.Platform
	gov  *power.Governor

	tick    int64 // ticks of DT stepped so far
	nextID  TaskID
	tasks   []*task
	cos     []COSConfig
	energyJ float64

	// Fault-injection state (see internal/chaos and the fleet's
	// stragglers): an offline core range and a frequency derate.
	offLo, offHi int // offline physical cores [offLo, offHi]; offHi < offLo when none
	freqDerate   float64

	lastWatts    float64
	lastLinkUtil float64
	tel          *machTelemetry

	layout  stepLayout
	scratch stepScratch

	// Fast-forward state (fastforward.go): the last full step's capture
	// and a counter of replayed steps.
	ff      stepCapture
	ffSteps uint64
}

// NumCOS is the number of classes of service, matching RDT's common
// configuration.
const NumCOS = 8

// New returns a machine for the platform with all classes of service
// initially unrestricted.
func New(p platform.Platform) *Machine {
	m := &Machine{
		plat:       p,
		gov:        power.NewGovernor(p),
		cos:        make([]COSConfig, NumCOS),
		offLo:      0,
		offHi:      -1,
		freqDerate: 1,
	}
	for i := range m.cos {
		m.cos[i] = COSConfig{Ways: cache.Mask{Lo: 0, Hi: p.LLC.Ways - 1}, MBAFrac: 1}
	}
	return m
}

// Platform returns the machine's hardware description.
func (m *Machine) Platform() platform.Platform { return m.plat }

// Now returns the simulation time in seconds: Time(Tick()).
func (m *Machine) Now() float64 { return Time(m.tick) }

// Tick returns the number of DT ticks the machine has advanced.
func (m *Machine) Tick() int64 { return m.tick }

// AdvanceIdle moves the clock forward steps ticks without simulating:
// no task runs, no energy accrues. Fleet simulations use it for
// powered-off (standby / drained) machines so their clocks stay aligned
// with the cluster's tick barriers and a later activation sees correct
// absolute time.
func (m *Machine) AdvanceIdle(steps int) {
	if steps > 0 {
		m.tick += int64(steps)
	}
}

// EnergyJ returns total package energy consumed so far.
func (m *Machine) EnergyJ() float64 { return m.energyJ }

// LastWatts returns the package power of the most recent step.
func (m *Machine) LastWatts() float64 { return m.lastWatts }

// LastLinkUtil returns the memory-link utilization of the last step.
func (m *Machine) LastLinkUtil() float64 { return m.lastLinkUtil }

// AddTask places a workload on the machine.
func (m *Machine) AddTask(wl Workload, p Placement) (TaskID, error) {
	m.invalidateFF()
	if err := m.validate(p, -1); err != nil {
		return 0, err
	}
	m.nextID++
	t := &task{id: m.nextID, wl: wl, place: p}
	m.tasks = append(m.tasks, t)
	return t.id, nil
}

// RemoveTask removes a task; its accumulated stats are discarded.
func (m *Machine) RemoveTask(id TaskID) {
	m.invalidateFF()
	for i, t := range m.tasks {
		if t.id == id {
			m.tasks = append(m.tasks[:i], m.tasks[i+1:]...)
			return
		}
	}
}

// SetPlacement moves a task (the cpuset knob).
func (m *Machine) SetPlacement(id TaskID, p Placement) error {
	m.invalidateFF()
	t := m.find(id)
	if t == nil {
		return fmt.Errorf("machine: no task %d", id)
	}
	if err := m.validate(p, id); err != nil {
		return err
	}
	t.place = p
	return nil
}

// SetPlacements moves several tasks atomically, validating only the
// final layout. Use it for processor-division switches, where the new
// regions transiently overlap the old ones.
func (m *Machine) SetPlacements(moves map[TaskID]Placement) error {
	m.invalidateFF()
	old := make(map[TaskID]Placement, len(moves))
	for id, p := range moves {
		t := m.find(id)
		if t == nil {
			return fmt.Errorf("machine: no task %d", id)
		}
		old[id] = t.place
		t.place = p
	}
	rollback := func() {
		for id, p := range old {
			m.find(id).place = p
		}
	}
	for _, t := range m.tasks {
		if err := m.validate(t.place, t.id); err != nil {
			rollback()
			return err
		}
	}
	return nil
}

// Placement returns a task's current placement.
func (m *Machine) Placement(id TaskID) (Placement, bool) {
	if t := m.find(id); t != nil {
		return t.place, true
	}
	return Placement{}, false
}

// SetCOS configures a class of service (the CAT/MBA knobs).
func (m *Machine) SetCOS(idx int, cfg COSConfig) error {
	m.invalidateFF()
	if idx < 0 || idx >= len(m.cos) {
		return fmt.Errorf("machine: COS %d out of range", idx)
	}
	if cfg.Ways.Count() <= 0 || cfg.Ways.Lo < 0 || cfg.Ways.Hi >= m.plat.LLC.Ways {
		return fmt.Errorf("machine: invalid way mask %v for %d-way LLC", cfg.Ways, m.plat.LLC.Ways)
	}
	if cfg.MBAFrac <= 0 || cfg.MBAFrac > 1 {
		return fmt.Errorf("machine: MBA fraction %.2f out of (0,1]", cfg.MBAFrac)
	}
	m.cos[idx] = cfg
	return nil
}

// COS returns the configuration of a class of service.
func (m *Machine) COS(idx int) (COSConfig, bool) {
	if idx < 0 || idx >= len(m.cos) {
		return COSConfig{}, false
	}
	return m.cos[idx], true
}

// Stats returns a copy of a task's accumulated statistics.
func (m *Machine) Stats(id TaskID) (TaskStats, bool) {
	if t := m.find(id); t != nil {
		return t.stats, true
	}
	return TaskStats{}, false
}

// ResetStats zeroes a task's accumulated statistics.
func (m *Machine) ResetStats(id TaskID) {
	m.invalidateFF()
	if t := m.find(id); t != nil {
		t.stats = TaskStats{}
	}
}

// SetOffline marks the physical cores [lo, hi] offline: tasks keep
// their placements but execute only on their remaining online cores (a
// task fully inside the range stalls). This models hot-unplug or
// kernel isolation of a failing core cluster.
func (m *Machine) SetOffline(lo, hi int) error {
	m.invalidateFF()
	if lo < 0 || hi >= m.plat.Cores || hi < lo {
		return fmt.Errorf("machine: offline range [%d,%d] outside 0..%d", lo, hi, m.plat.Cores-1)
	}
	m.offLo, m.offHi = lo, hi
	return nil
}

// ClearOffline restores all cores.
func (m *Machine) ClearOffline() {
	m.invalidateFF()
	m.offLo, m.offHi = 0, -1
}

// OfflineRange returns the current offline core range, if any.
func (m *Machine) OfflineRange() (lo, hi int, ok bool) {
	if m.offHi < m.offLo {
		return 0, 0, false
	}
	return m.offLo, m.offHi, true
}

// effCores returns how many of a placement's cores are online.
func (m *Machine) effCores(p Placement) int {
	n := p.Cores()
	if n == 0 || m.offHi < m.offLo {
		return n
	}
	lo := p.CoreLo
	if lo < m.offLo {
		lo = m.offLo
	}
	hi := p.CoreHi
	if hi > m.offHi {
		hi = m.offHi
	}
	if hi >= lo {
		n -= hi - lo + 1
	}
	return n
}

// SetFreqDerate scales every solved region frequency by f in (0, 1] —
// a fleet straggler's slowed clock (internal/cluster failover).
func (m *Machine) SetFreqDerate(f float64) {
	m.invalidateFF()
	if f <= 0 || f > 1 {
		f = 1
	}
	m.freqDerate = f
}

func (m *Machine) find(id TaskID) *task {
	for _, t := range m.tasks {
		if t.id == id {
			return t
		}
	}
	return nil
}

// validate checks a placement against the platform and existing tasks.
// Slot-0 ranges must not overlap each other; a slot-1 range must sit
// inside exactly one slot-0 range (a hyperthread needs a primary).
func (m *Machine) validate(p Placement, self TaskID) error {
	if p.Cores() <= 0 {
		return fmt.Errorf("machine: empty core range [%d,%d]", p.CoreLo, p.CoreHi)
	}
	if p.CoreLo < 0 || p.CoreHi >= m.plat.Cores {
		return fmt.Errorf("machine: core range [%d,%d] outside 0..%d", p.CoreLo, p.CoreHi, m.plat.Cores-1)
	}
	if p.SMTSlot < 0 || p.SMTSlot >= m.plat.SMTWays {
		return fmt.Errorf("machine: SMT slot %d on %d-way SMT", p.SMTSlot, m.plat.SMTWays)
	}
	if p.COS < 0 || p.COS >= len(m.cos) {
		return fmt.Errorf("machine: COS %d out of range", p.COS)
	}
	for _, t := range m.tasks {
		if t.id == self {
			continue
		}
		if t.place.SMTSlot == p.SMTSlot && t.place.overlaps(p) {
			return fmt.Errorf("machine: placement [%d,%d] slot %d overlaps task %q",
				p.CoreLo, p.CoreHi, p.SMTSlot, t.wl.Name())
		}
	}
	if p.SMTSlot > 0 {
		// Every core of a sibling placement needs a primary thread:
		// the union of slot-0 ranges must cover it.
		for c := p.CoreLo; c <= p.CoreHi; c++ {
			covered := false
			for _, t := range m.tasks {
				if t.id == self || t.place.SMTSlot != 0 {
					continue
				}
				if t.place.CoreLo <= c && c <= t.place.CoreHi {
					covered = true
					break
				}
			}
			if !covered {
				return fmt.Errorf("machine: sibling core %d has no primary task", c)
			}
		}
	}
	return nil
}

// SMT execution-port interference coefficients, by the *victim's* own
// activity class: a thread whose sibling is fully active loses
// ~1/(1+c) of its issue throughput. AMX-heavy work barely contends —
// the TMUL grid is a dedicated unit a scalar sibling cannot occupy —
// while scalar work shares everything. Cache and bandwidth contention
// are modelled separately through the allocation paths.
func smtContention(victim power.Class) float64 {
	switch victim {
	case power.AMXHeavy:
		return 0.15
	case power.AVXHeavy:
		return 0.35
	default:
		return 0.55
	}
}

// Step advances the simulation by one tick.
func (m *Machine) Step() {
	n := len(m.tasks)
	if n == 0 {
		m.lastWatts = m.plat.UncoreWatts + float64(m.plat.Cores)*m.plat.IdleCoreW
		m.energyJ += m.lastWatts * DT
		m.tick++
		// The capture a replay of this zero-task step re-adds.
		c := &m.ff
		c.valid, c.empty, c.n = true, true, 0
		c.watts, c.energyInc = m.lastWatts, m.lastWatts*DT
		return
	}

	// Task order is stable by construction: AddTask assigns monotonic
	// ids and appends, and RemoveTask preserves relative order, so
	// m.tasks is always sorted by id and stepping is deterministic.
	lay := m.stepLayout()
	eff := lay.eff

	// Pass 1: demand estimation under the provisional environments. A
	// task whose cores are all offline is dormant: zero demand, no step.
	sc := &m.scratch
	demands := resizeSlice(&sc.demands, n)
	for i, t := range m.tasks {
		if eff[i] > 0 {
			demands[i] = t.wl.Demand(lay.base[i])
		} else {
			demands[i] = Demand{}
		}
	}

	// Frequency regions: each primary's load, raised by its siblings'
	// demand on the shared fraction of the region's cores.
	loads := resizeSlice(&sc.loads, len(lay.primaries))
	for j, p := range lay.primaries {
		loads[j] = power.RegionLoad{Cores: eff[p], Class: demands[p].Class, Util: demands[p].Util}
	}
	for _, s := range lay.merges {
		d, r := &demands[s.task], &loads[s.other]
		if d.Class > r.Class {
			r.Class = d.Class
		}
		r.Util = math.Min(1.6, r.Util+d.Util*s.cover)
	}
	sol := m.gov.Solve(loads, DT)

	// Bandwidth: two-level weighted max-min arbitration — across the
	// occupied classes of service (weights: core counts, caps: MBA
	// throttles), then across the tasks within each class (weights:
	// core counts). An empty class would have zero demand and weight,
	// so leaving it out changes no grant.
	cosDemand := resizeSlice(&sc.cosDemand, len(lay.cos))
	for k := range lay.cos {
		d := 0.0
		for _, i := range lay.members[lay.memberLo[k]:lay.memberLo[k+1]] {
			d += demands[i].BWGBs
		}
		cosDemand[k] = d
	}
	grants := sc.cosArb.MaxMin(m.plat.MemBWGBs, cosDemand, lay.cosWeight, lay.cosCap)
	cosGrants := resizeSlice(&sc.cosGrants, len(m.cos))
	clear(cosGrants)
	taskGrant := resizeSlice(&sc.taskGrant, n)
	for k, c := range lay.cos {
		cosGrants[c] = grants[k]
		lo, hi := lay.memberLo[k], lay.memberLo[k+1]
		dem := resizeSlice(&sc.dem, hi-lo)
		for x, i := range lay.members[lo:hi] {
			dem[x] = demands[i].BWGBs
		}
		g := sc.taskArb.MaxMin(grants[k], dem, lay.memberW[lo:hi], nil)
		for x, i := range lay.members[lo:hi] {
			taskGrant[i] = g[x]
		}
	}
	linkUsed := 0.0
	for _, g := range taskGrant {
		linkUsed += g
	}
	linkUtil := linkUsed / m.plat.MemBWGBs

	// Pass 2: final environments and execution. Alongside the baseline
	// accumulation, record each task's increment products in the
	// fast-forward capture so quiescent follow-on steps can re-add the
	// identical values (fastforward.go).
	ffc := &m.ff
	resizeSlice(&ffc.stepped, n)
	resizeSlice(&ffc.quiesce, n)
	resizeSlice(&ffc.inc, n)
	for i, t := range m.tasks {
		if eff[i] == 0 {
			ffc.stepped[i] = false
			continue // all cores offline: the task is stalled
		}
		ffc.stepped[i] = true
		ffc.quiesce[i] = lay.quiesce[i]
		env := lay.base[i]
		if r := lay.regionOf[i]; r >= 0 {
			env.GHz = sol.FreqGHz[r]
		}
		env.GHz *= m.freqDerate
		// Bandwidth share within COS.
		env.BWGBs = taskGrant[i]
		// Guarantee a trickle so zero-demand estimates don't deadlock
		// workloads whose demand appears after execution begins.
		if env.BWGBs < 0.1 {
			env.BWGBs = 0.1
		}
		env.LLCMB = lay.llcMB[i]
		env.ComputeShare = lay.computeShare(i, demands)
		env.LinkUtil = linkUtil

		u := t.wl.Step(env, m.Now())
		inc := &ffc.inc[i]
		inc.work = u.Work
		inc.flops = u.Flops
		inc.amxFlops = u.AMXFlops
		inc.avxFlops = u.AVXFlops
		inc.dramBytes = u.DRAMBytes
		inc.freqInc = env.GHz * DT
		inc.utilInc = u.Util * DT
		inc.amxBusyInc = u.AMXBusy * DT
		inc.avxBusyInc = u.AVXBusy * DT
		inc.energyInc = float64(eff[i]) *
			m.gov.CoreWatts(demands[i].Class, u.Util, env.GHz) * DT
		scaleBreakdown(&inc.breakdown, &u.Breakdown)
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

	m.lastWatts = sol.PackageWatts
	m.lastLinkUtil = linkUtil
	m.energyJ += sol.PackageWatts * DT
	m.tick++

	ffc.valid = true
	ffc.empty = false
	ffc.n = n
	ffc.watts = sol.PackageWatts
	ffc.linkUtil = linkUtil
	ffc.energyInc = sol.PackageWatts * DT
	ffc.sol = sol
	ffc.cosGrants = cosGrants

	if m.tel != nil {
		m.tel.record(m, sol, cosGrants, linkUtil, demands, lay.regionOf)
	}
}

// resizeSlice returns *s resized to n, reusing capacity when possible.
// Contents are unspecified; callers overwrite every element they read.
func resizeSlice[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n, n+n/2+4)
	}
	*s = (*s)[:n]
	return *s
}
