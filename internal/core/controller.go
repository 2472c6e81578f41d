package core

import (
	"fmt"
	"math"
	"sync"

	"aum/internal/colo"
	"aum/internal/machine"
	"aum/internal/manager"
	"aum/internal/rdt"
	"aum/internal/telemetry"
)

// Controller tunables. Every run uses these values.
const (
	// deltaThreshold is the deviation above which the controller
	// switches the processor division (Algorithm 1 line 16).
	deltaThreshold = 2.0
	// intervalS is the control period.
	intervalS = 0.05
	// divisionTicks is how many control intervals pass between core-
	// switcher evaluations (division moves are coarse: once per
	// second).
	divisionTicks = 20
	// watchdogN is the violation streak that trips the watchdog
	// (200 ms at the control period).
	watchdogN = 4
	// watchdogHoldTicks is the initial safe-mode hold, in control
	// intervals (1 s). Each unsuccessful re-probe doubles the hold,
	// capped at 16x.
	watchdogHoldTicks = 20
	// refineAlpha is the EMA blend weight of online refinement.
	refineAlpha = 0.05
)

// Options tune the runtime controller.
type Options struct {
	// Alpha and Beta are the prefill/decode token prices of the
	// efficiency objective (defaults 1.8 / 0.2, Section VII-A1).
	Alpha, Beta float64
	// Watchdog enables the SLO watchdog: after watchdogN consecutive
	// control intervals of violation it abandons fine-grained tuning,
	// falls back to the AU-exclusive safe division with the co-runner at
	// its floor allocation, and holds there — re-probing normal control
	// with exponentially growing hold periods until measurements
	// recover. Off by default: the watchdog deliberately trades
	// co-runner throughput for SLO recovery, and on scenarios whose SLO
	// is structurally infeasible (the paper's cc scenario) it would
	// otherwise pin the machine in safe mode forever.
	Watchdog bool
	// Telemetry, when set, receives the controller's decision audit log
	// (inputs -> delta -> action events), allocation gauges, and
	// watchdog state. Nil disables recording.
	Telemetry *telemetry.Registry
	// Trace, when set, receives division-phase spans on the controller
	// row of a Chrome trace.
	Trace *telemetry.Trace
	// OnlineRefine enables continuous refinement of the AUV model from
	// runtime measurements — the extension Section VII-D names as the
	// prototype's limitation ("reliance on runtime controlling rather
	// than online learning to continuously complement the AUV model").
	// Each control interval blends the measured tails and throughputs
	// into the currently-active bucket with an exponential moving
	// average, so the model tracks co-runners whose behaviour drifted
	// after profiling.
	OnlineRefine bool
}

func (o Options) withDefaults() Options {
	if o.Alpha == 0 {
		o.Alpha = 1.8
	}
	if o.Beta == 0 {
		o.Beta = 0.2
	}
	return o
}

// AUM is the runtime AU controller: it consumes the offline AUV Model
// and the live SLO telemetry to choose processor divisions and resource
// allocations (Algorithm 1).
type AUM struct {
	model *Model
	opt   Options

	tick   int
	curDiv int
	// Fine-grained allocation state navigated by the tuner, bounded by
	// the profiled config envelope.
	beWays int
	beMBA  int

	// Decision telemetry (inspectable by experiments and aumd).
	LastDelta    float64
	Switches     int
	HarvestSteps int
	ReturnSteps  int
	RefineSteps  int

	// Watchdog state, guarded by mu so WatchdogState can be read
	// concurrently with a running Tick.
	mu           sync.Mutex
	wdActive     bool
	wdViolations int // consecutive violating intervals while armed
	wdHold       int // safe-mode ticks remaining before a re-probe
	wdBackoff    int // current hold length, doubling per failed re-probe
	wdTrips      int

	// Interval measurement state for online refinement.
	lastBEWork float64
	lastNow    float64

	tel ctrlTelemetry
}

// WatchdogState is a snapshot of the SLO watchdog.
type WatchdogState struct {
	// Active reports whether the controller is parked in the safe
	// division with the co-runner floored.
	Active bool
	// Trips counts how many times the watchdog has engaged.
	Trips int
	// Violations is the current consecutive-violation streak while
	// armed (reset on any compliant interval).
	Violations int
	// HoldRemaining is how many control intervals remain before the
	// watchdog re-probes normal control.
	HoldRemaining int
}

// WatchdogState returns a snapshot of the watchdog. Safe to call from
// another goroutine while the controller ticks.
func (a *AUM) WatchdogState() WatchdogState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return WatchdogState{Active: a.wdActive, Trips: a.wdTrips,
		Violations: a.wdViolations, HoldRemaining: a.wdHold}
}

// NewAUM builds the controller from a profiled model.
func NewAUM(model *Model, opt Options) (*AUM, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	a := &AUM{model: model, opt: opt, wdBackoff: watchdogHoldTicks}
	a.tel = newCtrlTelemetry(opt.Telemetry, opt.Trace)
	return a, nil
}

// Name implements colo.Manager.
func (a *AUM) Name() string { return "AUM" }

// Interval implements colo.Manager.
func (a *AUM) Interval() float64 { return intervalS }

// Division returns the current division index.
func (a *AUM) Division() int { return a.curDiv }

// Allocation returns the co-runner's current (ways, MBA%) grant.
func (a *AUM) Allocation() (ways, mba int) { return a.beWays, a.beMBA }

// Setup implements colo.Manager: pick the statically best feasible
// bucket and realize it.
func (a *AUM) Setup(e *colo.Env) error {
	div, cfg := a.BestBucket(e.Scen.SLO.TTFT, e.Scen.SLO.TPOT)
	a.curDiv = div
	a.beWays = a.model.Configs[cfg].BEWays
	a.beMBA = a.model.Configs[cfg].BEMBA
	a.tel.setup(div, a.beWays, a.beMBA)

	sp := a.model.Divisions[div].Split(e.Plat.Cores)
	if err := manager.PlaceLLM(e, sp, manager.COSLLM, manager.COSLLM); err != nil {
		return err
	}
	if e.HasBE() && sp.SharedCores() > 0 {
		if err := e.AddBE(machine.Placement{CoreLo: sp.NoLo, CoreHi: sp.NoHi, SMTSlot: 0, COS: manager.COSBE}); err != nil {
			return err
		}
	}
	return a.applyAllocation(e)
}

// BestBucket maximizes bucket efficiency subject to the tail-latency
// constraints (Algorithm 1 line 5): the controller's decision, taken
// at Setup and at every division re-check in Tick. When an SLO is
// structurally infeasible — the paper's cc scenario cannot meet its
// TTFT even on an exclusive machine (Section VII-C) — the constraint is
// relaxed to the achievable frontier so the controller still optimizes
// among the best-attainable buckets instead of collapsing to max
// protection.
func (a *AUM) BestBucket(sloTTFT, sloTPOT float64) (div, cfg int) {
	boundTTFT, boundTPOT := feasibleBounds(a.model, sloTTFT, sloTPOT)
	// Stage 1: pick the division by its *config-averaged* efficiency
	// over feasible buckets. Averaging across the five resource probes
	// quenches per-bucket profiling noise, which otherwise flips the
	// coarse (and expensive) division decision.
	bestDivE, found := -1.0, false
	for d := range a.model.Divisions {
		sum, n := 0.0, 0
		for c := range a.model.Configs {
			b := a.model.Bucket(d, c)
			if b.TTFTAvg > boundTTFT || b.TPOTTail > boundTPOT {
				continue
			}
			sum += b.Efficiency(a.opt.Alpha, a.opt.Beta, a.model.Gamma)
			n++
		}
		if n == 0 {
			continue
		}
		if e := sum / float64(n); e > bestDivE {
			bestDivE, div, found = e, d, true
		}
	}
	if !found {
		// Most protective: AU-heavy division, anchor config.
		return 0, 0
	}
	// Stage 2: best feasible config within the chosen division.
	bestE := -1.0
	for c := range a.model.Configs {
		b := a.model.Bucket(div, c)
		if b.TTFTAvg > boundTTFT || b.TPOTTail > boundTPOT {
			continue
		}
		if e := b.Efficiency(a.opt.Alpha, a.opt.Beta, a.model.Gamma); e > bestE {
			bestE, cfg = e, c
		}
	}
	return div, cfg
}

// feasibleBounds relaxes each tail constraint to 15% above the best any
// bucket achieves when the SLO itself is unattainable.
func feasibleBounds(m *Model, sloTTFT, sloTPOT float64) (float64, float64) {
	minTTFT, minTPOT := math.Inf(1), math.Inf(1)
	for i := range m.Buckets {
		if m.Buckets[i].TTFTAvg < minTTFT {
			minTTFT = m.Buckets[i].TTFTAvg
		}
		if m.Buckets[i].TPOTTail < minTPOT {
			minTPOT = m.Buckets[i].TPOTTail
		}
	}
	// The bounds are soft (the efficiency objective already prices
	// guarantee losses through the guaranteed-token throughputs), so a
	// modest margin lets the controller trade a thin slice of tail for
	// a large efficiency gain without admitting egregious buckets.
	// When an SLO is structurally unattainable even by the most
	// protective bucket, the constraint is dropped entirely: no
	// allocation can buy the guarantee back, so the machine serves
	// that phase best-effort and the efficiency objective decides
	// (the paper's cc scenario, whose TTFT fails even on an
	// exclusive machine).
	bTTFT := sloTTFT * 1.3
	if minTTFT > sloTTFT {
		bTTFT = math.Inf(1)
	}
	bTPOT := sloTPOT * 1.1
	if minTPOT > sloTPOT {
		bTPOT = math.Inf(1)
	}
	return bTTFT, bTPOT
}

// applyAllocation programs the current (beWays, beMBA) through RDT.
func (a *AUM) applyAllocation(e *colo.Env) error {
	a.tel.allocation(a.curDiv, a.beWays, a.beMBA)
	return ApplyConfig(e, ResourceConfig{BEWays: a.beWays, BEMBA: a.beMBA})
}

// allocation bounds: the tuner never strands the AU side below 2 ways
// and keeps the shared app at least minimally provisioned.
func (a *AUM) boundAllocation(e *colo.Env) {
	maxWays := e.Plat.LLC.Ways - 2
	if a.beWays > maxWays {
		a.beWays = maxWays
	}
	if a.beWays < 1 {
		a.beWays = 1
	}
	if a.beMBA > 100 {
		a.beMBA = 100
	}
	if a.beMBA < 10 {
		a.beMBA = 10
	}
}

// Tick implements colo.Manager: Algorithm 1.
func (a *AUM) Tick(e *colo.Env, now float64) error {
	a.tick++
	a.tel.ticks.Inc()

	// Stage 1 — slack-aware SLO analysis (lines 1-3).
	sloH, sloL := e.Engine.RuntimeSLOs(now)

	// Measured performance P^m: recent tails of both phases.
	st := e.Engine.Stats()
	mTTFT := st.TailTTFT(90)
	mTPOT := st.TailTPOT(90)
	if mTPOT == 0 {
		mTPOT = st.MeanTPOT()
	}
	if mTTFT == 0 {
		mTTFT = st.MeanTTFT()
	}

	// Stage 2 — efficiency-aware core switching (lines 4-6), evaluated
	// at a coarser period or when the deviation forces it.
	meets := (mTTFT == 0 || mTTFT <= sloH+e.Scen.SLO.TTFT*0.1) && (mTPOT == 0 || mTPOT <= sloL)

	// Deviation delta_AU (lines 9/13): usage-weighted ratio between
	// target and measured performance. High-AU usage weighs 1.0,
	// low-AU 0.5.
	const wH, wL = 1.0, 0.5
	var delta float64
	if meets {
		delta = wH*safeRatio(sloH, mTTFT) + wL*safeRatio(sloL, mTPOT)
	} else {
		delta = wH*safeRatio(mTTFT, sloH) + wL*safeRatio(mTPOT, sloL)
	}
	a.LastDelta = delta
	a.tel.delta.Set(delta)

	// Graceful degradation: sustained violation hands control to the
	// watchdog, which parks the machine in the safe division until
	// measurements recover. While it holds, the normal harvest/return
	// tuner is suspended — oscillating the co-runner's grant during an
	// incident only prolongs it.
	if a.opt.Watchdog {
		engaged, err := a.watchdog(e, now, meets)
		if engaged || err != nil {
			if err == nil {
				a.tel.decision(now, "watchdog-hold", mTTFT, mTPOT, sloH, sloL, delta, meets)
			}
			return err
		}
	}

	if a.tick%divisionTicks == 0 || (!meets && delta > deltaThreshold) {
		// Division feasibility is judged against the *scenario* SLOs:
		// the wait-shrunk runtime slack drives the fine-grained tuner,
		// but letting it redefine structural feasibility would flip
		// the controller into unconstrained mode on every queue spike.
		div, _ := a.BestBucket(e.Scen.SLO.TTFT, e.Scen.SLO.TPOT)
		if div != a.curDiv {
			if err := a.switchDivision(e, div, now); err != nil {
				return err
			}
		}
	}

	// Online refinement: fold the live measurements into the active
	// bucket so the model tracks post-profiling drift.
	if a.opt.OnlineRefine {
		a.refine(e, now, mTTFT, mTPOT)
	}

	// Stage 3 — collision-aware allocation tuning (lines 7-15).
	if !e.HasBE() {
		a.tel.decision(now, "hold", mTTFT, mTPOT, sloH, sloL, delta, meets)
		return nil
	}
	sens := a.model.Sensitivities(a.curDiv)
	maxWays := e.Plat.LLC.Ways - 2
	if meets {
		// Aggressive harvest: grant the resource with the best shared
		// gain per unit of AU tail impact, falling back to balanced
		// growth when the profiled gradients are within noise, and
		// never wedging against a saturated knob.
		a.HarvestSteps++
		ways := pickWays(sens, a.beWays, maxWays, a.beMBA)
		if ways && a.beWays >= maxWays {
			ways = false
		}
		if !ways && a.beMBA >= 100 {
			ways = a.beWays < maxWays
		}
		if ways {
			a.beWays++
		} else {
			a.beMBA += 10
		}
	} else {
		// Conservative return: reclaim the resource whose withdrawal
		// relieves the violated tail most, skipping knobs already at
		// their floor.
		a.ReturnSteps++
		ways := returnWaysFirst(sens, mTPOT > sloL)
		if ways && a.beWays <= 1 {
			ways = false
		}
		if !ways && a.beMBA <= 10 {
			ways = a.beWays > 1
		}
		if ways {
			a.beWays--
		} else {
			a.beMBA -= 10
		}
	}
	a.boundAllocation(e)
	if meets {
		a.tel.harvestSteps.Inc()
		a.tel.decision(now, "harvest", mTTFT, mTPOT, sloH, sloL, delta, meets)
	} else {
		a.tel.returnSteps.Inc()
		a.tel.decision(now, "return", mTTFT, mTPOT, sloH, sloL, delta, meets)
	}
	return a.applyAllocation(e)
}

// watchdog runs the SLO watchdog state machine for one control
// interval. It returns engaged=true when safe mode owns the machine
// this tick and the caller must skip normal division/allocation
// control.
//
// Armed: watchdogN consecutive violating intervals trip it — the
// controller switches to division 0 (the AU-heavy safe division, most
// protective of the LLM), floors the co-runner at 1 way / 10% MBA, and
// holds for wdBackoff intervals. After the hold it re-probes: a
// compliant interval releases control back to Algorithm 1 with the
// backoff reset, a violating one doubles the hold (capped at 16x) and
// keeps the machine parked. The exponential backoff prevents flapping
// between safe mode and an allocation that immediately re-violates.
func (a *AUM) watchdog(e *colo.Env, now float64, meets bool) (engaged bool, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	defer func() { a.tel.watchdogState(a.wdActive, a.wdHold) }()
	if !a.wdActive {
		if meets {
			a.wdViolations = 0
			return false, nil
		}
		a.wdViolations++
		if a.wdViolations < watchdogN {
			return false, nil
		}
		// Trip: safe division, co-runner floored.
		a.wdActive = true
		a.wdHold = a.wdBackoff
		a.wdTrips++
		a.tel.wdTrips.Inc()
		a.tel.event(now, "watchdog-trip",
			telemetry.Fi("violations", a.wdViolations),
			telemetry.Fi("hold_ticks", a.wdHold))
		if a.curDiv != 0 {
			if err := a.switchDivision(e, 0, now); err != nil {
				return true, err
			}
		}
		a.beWays, a.beMBA = 1, 10
		a.boundAllocation(e)
		return true, a.applyAllocation(e)
	}
	if a.wdHold > 0 {
		a.wdHold--
		return true, nil
	}
	if meets {
		// Recovered: resume normal control immediately (this tick).
		a.wdActive = false
		a.wdViolations = 0
		a.wdBackoff = watchdogHoldTicks
		a.tel.event(now, "watchdog-recovered")
		return false, nil
	}
	// Still violating after the hold: back off exponentially.
	a.wdBackoff *= 2
	if max := 16 * watchdogHoldTicks; a.wdBackoff > max {
		a.wdBackoff = max
	}
	a.wdHold = a.wdBackoff
	a.tel.event(now, "watchdog-probe-fail", telemetry.Fi("hold_ticks", a.wdHold))
	return true, nil
}

// refine blends runtime measurements into the bucket the controller is
// currently operating (identified by the division and the nearest
// resource-probe config), keeping the offline model honest as the
// co-runner's behaviour drifts.
func (a *AUM) refine(e *colo.Env, now, mTTFT, mTPOT float64) {
	cfg := a.nearestConfig()
	b := a.model.Bucket(a.curDiv, cfg)
	if b == nil {
		return
	}
	al := refineAlpha
	if mTTFT > 0 {
		b.TTFTTail += al * (mTTFT - b.TTFTTail)
	}
	if mTPOT > 0 {
		b.TPOTTail += al * (mTPOT - b.TPOTTail)
	}
	if e.BEID != 0 {
		if st, ok := e.M.Stats(e.BEID); ok {
			if a.lastNow > 0 && now > a.lastNow {
				rate := (st.Work - a.lastBEWork) / (now - a.lastNow)
				if rate >= 0 {
					b.ThrN += al * (rate - b.ThrN)
				}
			}
			a.lastBEWork = st.Work
			a.lastNow = now
		}
	}
	a.RefineSteps++
	a.tel.refineSteps.Inc()
}

// nearestConfig maps the tuner's fine-grained (ways, MBA) state onto
// the closest profiled resource probe.
func (a *AUM) nearestConfig() int {
	best, bestDist := 0, 1<<30
	for c, cfg := range a.model.Configs {
		d := (cfg.BEWays-a.beWays)*(cfg.BEWays-a.beWays) +
			(cfg.BEMBA-a.beMBA)*(cfg.BEMBA-a.beMBA)/25
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// switchDivision re-pins all tasks to the new division's regions
// atomically.
func (a *AUM) switchDivision(e *colo.Env, div int, now float64) error {
	sp := a.model.Divisions[div].Split(e.Plat.Cores)
	regions := []rdt.Region{
		{ID: e.PrefillID, Lo: sp.HiLo, Hi: sp.HiHi},
		{ID: e.DecodeID, Lo: sp.LoLo, Hi: sp.LoHi},
	}
	if e.BEID != 0 && sp.SharedCores() > 0 {
		regions = append(regions, rdt.Region{ID: e.BEID, Lo: sp.NoLo, Hi: sp.NoHi})
	}
	if err := e.RDT.PinAll(regions); err != nil {
		return fmt.Errorf("core: switching to division %d: %w", div, err)
	}
	a.tel.divisionSwitch(now, a.curDiv, div)
	a.curDiv = div
	a.Switches++
	return nil
}

// pickWays decides the harvest direction: follow the profiled gradient
// when it is decisive (one score at least twice the other), otherwise
// grow the resource that is proportionally furthest from its ceiling so
// the allocation stays balanced (the flexibility Figure 18 shows).
func pickWays(s Sensitivity, ways, maxWays, mba int) bool {
	waysScore := gainPerDamage(s.WaysThrN, s.WaysTPOT+s.WaysTTFT)
	mbaScore := gainPerDamage(s.MBAThrN, s.MBATPOT+s.MBATTFT)
	if waysScore > 2*mbaScore {
		return true
	}
	if mbaScore > 2*waysScore {
		return false
	}
	return pickBalanced(ways, maxWays, mba)
}

// pickBalanced reports whether ways are proportionally scarcer than
// bandwidth in the current grant.
func pickBalanced(ways, maxWays, mba int) bool {
	wf := float64(ways) / float64(maxWays)
	mf := float64(mba) / 100
	return wf <= mf
}

// returnWaysFirst picks the resource whose reclamation most relieves
// the violated metric (TPOT when tpotViolated, TTFT otherwise).
func returnWaysFirst(s Sensitivity, tpotViolated bool) bool {
	if tpotViolated {
		return s.WaysTPOT > s.MBATPOT
	}
	return s.WaysTTFT > s.MBATTFT
}

func gainPerDamage(gain, damage float64) float64 {
	if gain <= 0 {
		return 0
	}
	if damage <= 1e-9 {
		damage = 1e-9
	}
	return gain / damage
}

func safeRatio(num, den float64) float64 {
	if den <= 0 {
		return 1
	}
	return num / den
}

var _ colo.Manager = (*AUM)(nil)
