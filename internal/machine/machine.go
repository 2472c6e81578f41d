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
	// Step executes for dt seconds starting at now under env.
	Step(env Env, now, dt float64) Usage
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
	Breakdown    topdown.Breakdown // dt-weighted; normalize before reading
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

// MeanUtil returns the time-average realized utilization.
func (s TaskStats) MeanUtil() float64 {
	if s.TimeS <= 0 {
		return 0
	}
	return s.UtilIntegral / s.TimeS
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

// region is one frequency-governor region formed during a step: a
// slot-0 task plus any SMT siblings merged in.
type region struct {
	primary int // index into m.tasks
	class   power.Class
	util    float64
}

// stepScratch holds every per-step working buffer so that steady-state
// stepping allocates nothing. Buffers are sized on first use and grow
// only when the task population does.
type stepScratch struct {
	envs      []Env
	demands   []Demand
	eff       []int
	regions   []region
	regionOf  []int
	loads     []power.RegionLoad
	cosCores  []int
	cosDemand []float64
	cosWeight []float64
	cosCap    []float64
	taskGrant []float64
	idx       []int     // per-COS member indices, reused across classes
	dem       []float64 // per-COS member demands
	wts       []float64 // per-COS member weights
	cosArb    membw.Arbiter
	taskArb   membw.Arbiter
}

// Machine is one simulated socket.
type Machine struct {
	plat platform.Platform
	gov  *power.Governor

	now     float64
	nextID  TaskID
	tasks   []*task
	cos     []COSConfig
	energyJ float64

	// Fault-injection state (see internal/chaos): an offline core
	// range, a frequency derate standing in for license flapping, and
	// reserved link bandwidth standing in for uncontrolled DRAM traffic.
	offLo, offHi int // offline physical cores [offLo, offHi]; offHi < offLo when none
	freqDerate   float64
	bwPressure   float64

	lastWatts    float64
	lastLinkUtil float64
	tel          *machTelemetry

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

// Now returns the simulation time in seconds.
func (m *Machine) Now() float64 { return m.now }

// AdvanceIdle moves the clock forward without simulating: no task
// runs, no energy accrues. Fleet simulations use it for powered-off
// (standby / drained) machines so their clocks stay aligned with the
// cluster's tick barriers and a later activation sees correct absolute
// time.
func (m *Machine) AdvanceIdle(dt float64) {
	if dt > 0 {
		m.now += dt
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
// the stand-in for frequency-license flapping, where transient license
// re-grants cap all regions below their class frequency.
func (m *Machine) SetFreqDerate(f float64) {
	m.invalidateFF()
	if f <= 0 || f > 1 {
		f = 1
	}
	m.freqDerate = f
}

// SetBWPressure reserves gbs of the memory link for uncontrolled
// traffic outside any class of service (a saturation spike from an
// unmanaged agent), shrinking what the arbitrated tasks share and
// inflating link congestion.
func (m *Machine) SetBWPressure(gbs float64) {
	m.invalidateFF()
	if gbs < 0 {
		gbs = 0
	}
	if gbs > m.plat.MemBWGBs {
		gbs = m.plat.MemBWGBs
	}
	m.bwPressure = gbs
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

// Step advances the simulation by dt seconds.
func (m *Machine) Step(dt float64) {
	if dt <= 0 {
		panic("machine: non-positive dt")
	}
	n := len(m.tasks)
	if n == 0 {
		m.lastWatts = m.plat.UncoreWatts + float64(m.plat.Cores)*m.plat.IdleCoreW
		m.energyJ += m.lastWatts * dt
		m.now += dt
		m.captureEmpty(dt)
		return
	}

	// Task order is stable by construction: AddTask assigns monotonic
	// ids and appends, and RemoveTask preserves relative order, so
	// m.tasks is always sorted by id and stepping is deterministic.

	// Pass 1: provisional environments for demand estimation. Use the
	// class-license frequency and the full COS bandwidth cap. A task
	// whose cores are all offline is dormant: zero demand, no step.
	sc := &m.scratch
	envs := resizeSlice(&sc.envs, n)
	demands := resizeSlice(&sc.demands, n)
	eff := resizeSlice(&sc.eff, n)
	llcPart := cache.Partition{TotalMB: m.plat.TotalLLCMB(), Ways: m.plat.LLC.Ways}
	for i, t := range m.tasks {
		eff[i] = m.effCores(t.place)
		m.fillBaseEnv(&envs[i], t, llcPart)
		envs[i].Cores = eff[i]
		if eff[i] > 0 {
			demands[i] = t.wl.Demand(envs[i])
		} else {
			demands[i] = Demand{}
		}
	}

	// Frequency regions: one per slot-0 task; siblings merge in.
	regions := resizeSlice(&sc.regions, n)[:0]
	regionOf := resizeSlice(&sc.regionOf, n)
	for i := range regionOf {
		regionOf[i] = -1
	}
	for i, t := range m.tasks {
		if t.place.SMTSlot != 0 {
			continue
		}
		regionOf[i] = len(regions)
		regions = append(regions, region{primary: i, class: demands[i].Class, util: demands[i].Util})
	}
	for i, t := range m.tasks {
		if t.place.SMTSlot == 0 {
			continue
		}
		best, bestOverlap := -1, 0
		for j, r := range regions {
			rp := m.tasks[r.primary].place
			if !rp.overlaps(t.place) {
				continue
			}
			lo := max(rp.CoreLo, t.place.CoreLo)
			hi := min(rp.CoreHi, t.place.CoreHi)
			overlap := hi - lo + 1
			// Combined utilization raises core power on the shared
			// fraction of the region's cores.
			if demands[i].Class > regions[j].class {
				regions[j].class = demands[i].Class
			}
			cover := float64(overlap) / float64(rp.Cores())
			regions[j].util = math.Min(1.6, regions[j].util+demands[i].Util*cover)
			if overlap > bestOverlap {
				best, bestOverlap = j, overlap
			}
		}
		// The sibling runs at the frequency of the region hosting most
		// of its cores.
		regionOf[i] = best
	}
	loads := resizeSlice(&sc.loads, len(regions))
	for j, r := range regions {
		loads[j] = power.RegionLoad{
			Cores: eff[r.primary],
			Class: r.class,
			Util:  r.util,
		}
	}
	sol := m.gov.Solve(loads, dt)

	// Bandwidth: two-level weighted max-min arbitration — across
	// classes of service (weights: core counts, caps: MBA throttles),
	// then across the tasks within each class (weights: core counts).
	availBW := m.plat.MemBWGBs - m.bwPressure
	if availBW < 1 {
		availBW = 1
	}
	cosCores := resizeSlice(&sc.cosCores, len(m.cos))
	cosDemand := resizeSlice(&sc.cosDemand, len(m.cos))
	cosWeight := resizeSlice(&sc.cosWeight, len(m.cos))
	cosCap := resizeSlice(&sc.cosCap, len(m.cos))
	for c := range m.cos {
		cosCores[c] = 0
		cosDemand[c] = 0
	}
	for i, t := range m.tasks {
		cosCores[t.place.COS] += eff[i]
		cosDemand[t.place.COS] += demands[i].BWGBs
	}
	for c := range m.cos {
		cosWeight[c] = float64(cosCores[c])
		cosCap[c] = m.cos[c].MBAFrac * availBW
	}
	cosGrants := sc.cosArb.MaxMin(availBW, cosDemand, cosWeight, cosCap)
	// Within each class, allot across its tasks.
	taskGrant := resizeSlice(&sc.taskGrant, n)
	for c := range m.cos {
		idx := sc.idx[:0]
		dem := sc.dem[:0]
		wts := sc.wts[:0]
		for i, t := range m.tasks {
			if t.place.COS != c {
				continue
			}
			idx = append(idx, i)
			dem = append(dem, demands[i].BWGBs)
			wts = append(wts, float64(eff[i]))
		}
		sc.idx, sc.dem, sc.wts = idx, dem, wts
		if len(idx) == 0 {
			continue
		}
		g := sc.taskArb.MaxMin(cosGrants[c], dem, wts, nil)
		for k, i := range idx {
			taskGrant[i] = g[k]
		}
	}
	linkUsed := m.bwPressure
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
		ffc.quiesce[i], _ = t.wl.(Quiescer)
		env := envs[i]
		if regionOf[i] >= 0 {
			env.GHz = sol.FreqGHz[regionOf[i]]
		}
		env.GHz *= m.freqDerate
		// Bandwidth share within COS.
		c := t.place.COS
		env.BWGBs = taskGrant[i]
		// Guarantee a trickle so zero-demand estimates don't deadlock
		// workloads whose demand appears after execution begins.
		if env.BWGBs < 0.1 {
			env.BWGBs = 0.1
		}
		// LLC share within COS.
		if cosCores[c] > 0 {
			env.LLCMB = llcPart.WaysMB(m.cos[c].Ways.Count()) * float64(eff[i]) / float64(cosCores[c])
		}
		// SMT compute share.
		env.ComputeShare = m.computeShare(i, demands)
		env.LinkUtil = linkUtil

		u := t.wl.Step(env, m.now, dt)
		inc := &ffc.inc[i]
		inc.work = u.Work
		inc.flops = u.Flops
		inc.amxFlops = u.AMXFlops
		inc.avxFlops = u.AVXFlops
		inc.dramBytes = u.DRAMBytes
		inc.freqInc = env.GHz * dt
		inc.utilInc = u.Util * dt
		inc.amxBusyInc = u.AMXBusy * dt
		inc.avxBusyInc = u.AVXBusy * dt
		inc.energyInc = float64(eff[i]) *
			m.gov.CoreWatts(demands[i].Class, u.Util, env.GHz) * dt
		scaleBreakdown(&inc.breakdown, &u.Breakdown, dt)
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

	m.lastWatts = sol.PackageWatts
	m.lastLinkUtil = linkUtil
	m.energyJ += sol.PackageWatts * dt
	m.now += dt

	ffc.valid = true
	ffc.empty = false
	ffc.dt = dt
	ffc.n = n
	ffc.watts = sol.PackageWatts
	ffc.linkUtil = linkUtil
	ffc.energyInc = sol.PackageWatts * dt
	ffc.sol = sol
	ffc.cosGrants = cosGrants

	if m.tel != nil {
		m.tel.record(m, sol, cosGrants, linkUtil, demands, regionOf)
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

// fillBaseEnv writes the demand-estimation environment for a task into
// *env, avoiding a large-struct copy on the per-step path. Demand
// estimation uses the scalar license as the optimistic frequency; the
// governor refines it.
func (m *Machine) fillBaseEnv(env *Env, t *task, llcPart cache.Partition) {
	cosCfg := m.cos[t.place.COS]
	l2 := float64(m.plat.L2.SizeKB) / 1024 * float64(t.place.Cores())
	if m.hasSibling(t) {
		l2 /= 2
	}
	env.Plat = &m.plat
	env.Cores = t.place.Cores()
	env.GHz = power.LicenseCap(&m.plat, power.Scalar)
	env.ComputeShare = 1
	env.LLCMB = llcPart.WaysMB(cosCfg.Ways.Count())
	env.L2MB = l2
	env.BWGBs = cosCfg.MBAFrac * m.plat.MemBWGBs
	env.LinkUtil = 0
}

// hasSibling reports whether any task occupies the other SMT slot of
// t's cores.
func (m *Machine) hasSibling(t *task) bool {
	for _, o := range m.tasks {
		if o.id == t.id || o.place.SMTSlot == t.place.SMTSlot {
			continue
		}
		if o.place.overlaps(t.place) {
			return true
		}
	}
	return false
}

// computeShare returns the execution-port share of task i given all
// demands: 1 when alone on its cores, reduced by an active sibling.
func (m *Machine) computeShare(i int, demands []Demand) float64 {
	t := m.tasks[i]
	partnerUtil := 0.0
	for j, o := range m.tasks {
		if j == i || o.place.SMTSlot == t.place.SMTSlot {
			continue
		}
		if o.place.overlaps(t.place) {
			// Weight by how much of t's range the sibling covers.
			lo := math.Max(float64(t.place.CoreLo), float64(o.place.CoreLo))
			hi := math.Min(float64(t.place.CoreHi), float64(o.place.CoreHi))
			cover := (hi - lo + 1) / float64(t.place.Cores())
			partnerUtil += demands[j].Util * cover
		}
	}
	if partnerUtil <= 0 {
		return 1
	}
	c := smtContention(demands[i].Class)
	return 1 / (1 + c*math.Min(partnerUtil, 1.25))
}
