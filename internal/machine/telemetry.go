package machine

import (
	"strconv"

	"aum/internal/power"
	"aum/internal/telemetry"
)

// machTelemetry exports the per-step machine state: package power,
// link utilization, per-COS bandwidth grants, and per-task license
// class / frequency. Handles are cached per COS and per task so the
// per-step cost is a handful of atomic stores.
type machTelemetry struct {
	reg *telemetry.Registry

	steps          *telemetry.Counter
	throttledSteps *telemetry.Counter
	ffSteps        *telemetry.Counter
	packageWatts   *telemetry.Gauge
	linkUtil       *telemetry.Gauge
	hotspot        *telemetry.Gauge

	cosGrant  []*telemetry.Gauge
	taskGHz   map[TaskID]*telemetry.Gauge
	taskClass map[TaskID]*telemetry.Gauge

	// Transition detection for event emission.
	lastClass     map[TaskID]power.Class
	lastThrottled bool
}

// SetTelemetry attaches a registry; pass nil to detach. Attach before
// the first Step: once set, every full step records its state and
// every replayed tick is counted.
func (m *Machine) SetTelemetry(reg *telemetry.Registry) {
	m.invalidateFF()
	if reg == nil {
		m.tel = nil
		return
	}
	t := &machTelemetry{
		reg:            reg,
		steps:          reg.Counter("aum_machine_steps_total"),
		throttledSteps: reg.Counter("aum_power_throttled_steps_total"),
		ffSteps:        reg.Counter("aum_machine_ff_steps_total"),
		packageWatts:   reg.Gauge("aum_power_package_watts"),
		linkUtil:       reg.Gauge("aum_membw_link_util"),
		hotspot:        reg.Gauge("aum_power_hotspot"),
		cosGrant:       make([]*telemetry.Gauge, len(m.cos)),
		taskGHz:        make(map[TaskID]*telemetry.Gauge),
		taskClass:      make(map[TaskID]*telemetry.Gauge),
		lastClass:      make(map[TaskID]power.Class),
	}
	for c := range t.cosGrant {
		t.cosGrant[c] = reg.Gauge(`aum_membw_cos_grant_gbs{cos="` + strconv.Itoa(c) + `"}`)
	}
	m.tel = t
}

// replayed counts n replayed ticks, throttled of them under a
// throttled capture. A replayed tick re-adds the last full step's
// capture, so the gauges record set still hold its values and no
// transition can fire: only the step counters move. Nil-safe, for a
// bare machine.
func (t *machTelemetry) replayed(n, throttled uint64) {
	if t == nil {
		return
	}
	t.steps.Add(n)
	t.ffSteps.Add(n)
	t.throttledSteps.Add(throttled)
}

// record publishes one full step's state and emits transition events
// (throttle engage/release, per-task license class changes).
func (t *machTelemetry) record(m *Machine, sol power.Solution, cosGrants []float64, linkUtil float64, demands []Demand, regionOf []int) {
	t.steps.Inc()
	t.packageWatts.Set(sol.PackageWatts)
	t.linkUtil.Set(linkUtil)
	hotspot := 0.0
	if sol.Hotspot {
		hotspot = 1
	}
	t.hotspot.Set(hotspot)
	if sol.Throttled {
		t.throttledSteps.Inc()
	}
	if sol.Throttled != t.lastThrottled {
		name := "throttle-release"
		if sol.Throttled {
			name = "throttle-engage"
		}
		t.reg.Emit(m.Now(), "power", name,
			telemetry.Ff("watts", sol.PackageWatts),
			telemetry.Fb("hotspot", sol.Hotspot))
		t.lastThrottled = sol.Throttled
	}
	for c, g := range cosGrants {
		t.cosGrant[c].Set(g)
	}
	for i, task := range m.tasks {
		if task.place.SMTSlot != 0 {
			continue
		}
		id := task.id
		key := strconv.Itoa(int(id))
		gGHz, ok := t.taskGHz[id]
		if !ok {
			gGHz = t.reg.Gauge(`aum_power_task_ghz{task="` + key + `"}`)
			t.taskGHz[id] = gGHz
		}
		if regionOf[i] >= 0 {
			gGHz.Set(sol.FreqGHz[regionOf[i]])
		}
		cls := demands[i].Class
		gCls, ok := t.taskClass[id]
		if !ok {
			gCls = t.reg.Gauge(`aum_power_license_class{task="` + key + `"}`)
			t.taskClass[id] = gCls
		}
		gCls.Set(float64(cls))
		if last, seen := t.lastClass[id]; !seen {
			t.lastClass[id] = cls
		} else if last != cls {
			t.reg.Emit(m.Now(), "power", "license-transition",
				telemetry.F("task", key),
				telemetry.F("from", last.String()),
				telemetry.F("to", cls.String()))
			t.lastClass[id] = cls
		}
	}
}
