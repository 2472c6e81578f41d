package core

import (
	"aum/internal/colo"
	"aum/internal/machine"
	"aum/internal/manager"
	"aum/internal/rdt"
)

// The Table V ablations isolate one AUV dimension each. All three
// consume the same profiled AUV Model as AUM but use only "their"
// slice of it, which is exactly how the paper frames the variants:
//
//   - AU-UP (usage pattern) sizes the AU regions from usage-level
//     performance but performs no resource partitioning and ignores
//     power ("only optimizes manipulation of AU applications rather
//     than sharing").
//   - AU-FI (frequency interference) divides the processor to keep
//     frequency interference away from the shared region, mostly
//     improving sharing performance; resources stay unpartitioned.
//   - AU-RB (resource bound) keeps a static balanced division and runs
//     only the bound-aware allocation tuner against the static SLOs.

// AUUP is the usage-pattern-only ablation.
type AUUP struct {
	model  *Model
	opt    Options
	curDiv int
	tick   int
}

// NewAUUP builds the ablation from a profiled model.
func NewAUUP(model *Model, opt Options) (*AUUP, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &AUUP{model: model, opt: opt.withDefaults()}, nil
}

// Name implements colo.Manager.
func (a *AUUP) Name() string { return "AU-UP" }

// Interval implements colo.Manager.
func (a *AUUP) Interval() float64 { return intervalS }

// fullShareConfig returns the no-partitioning allocation: the shared
// class gets as many ways and as much bandwidth as the knobs allow.
func fullShareConfig(llcWays int) ResourceConfig {
	return ResourceConfig{BEWays: llcWays - 2, BEMBA: 100}
}

// bestDivByAU returns the division whose bucket (at full sharing)
// maximizes AU token revenue subject to the AU tails.
func bestDivByAU(m *Model, alpha, beta, sloTTFT, sloTPOT float64) int {
	boundTTFT, boundTPOT := feasibleBounds(m, sloTTFT, sloTPOT)
	cfg := len(m.Configs) - 1 // the most generous sharing probe
	best, bestV, found := 0, -1.0, false
	for d := range m.Divisions {
		b := m.Bucket(d, cfg)
		if b.TTFTAvg > boundTTFT || b.TPOTTail > boundTPOT {
			continue
		}
		if v := alpha*b.ThrH + beta*b.ThrL; v > bestV {
			best, bestV, found = d, v, true
		}
	}
	if !found {
		return 0
	}
	return best
}

// Setup implements colo.Manager.
func (a *AUUP) Setup(e *colo.Env) error {
	a.curDiv = bestDivByAU(a.model, a.opt.Alpha, a.opt.Beta, e.Scen.SLO.TTFT, e.Scen.SLO.TPOT)
	return placeDivision(e, a.model.Divisions[a.curDiv], fullShareConfig(e.Plat.LLC.Ways))
}

// Tick implements colo.Manager: periodically re-evaluate the division
// against the runtime slack; never touch CAT/MBA.
func (a *AUUP) Tick(e *colo.Env, now float64) error {
	a.tick++
	if a.tick%divisionTicks != 0 {
		return nil
	}
	sloH, sloL := e.Engine.RuntimeSLOs(now)
	div := bestDivByAU(a.model, a.opt.Alpha, a.opt.Beta, maxf(sloH, e.Scen.SLO.TTFT*0.5), maxf(sloL, e.Scen.SLO.TPOT*0.5))
	if div != a.curDiv {
		if err := repinDivision(e, a.model.Divisions[div]); err != nil {
			return err
		}
		a.curDiv = div
	}
	return nil
}

// AUFI is the frequency-interference-only ablation.
type AUFI struct {
	model  *Model
	opt    Options
	curDiv int
}

// NewAUFI builds the ablation from a profiled model.
func NewAUFI(model *Model, opt Options) (*AUFI, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &AUFI{model: model, opt: opt.withDefaults()}, nil
}

// Name implements colo.Manager.
func (a *AUFI) Name() string { return "AU-FI" }

// Interval implements colo.Manager.
func (a *AUFI) Interval() float64 { return 0 }

// Setup implements colo.Manager: choose the division that keeps the
// shared region's frequency highest (weighted by its size), i.e. the
// one that best contains AU-induced frequency interference, with a
// lenient AU-tail guard.
func (a *AUFI) Setup(e *colo.Env) error {
	cfg := len(a.model.Configs) - 1
	guard := e.Scen.SLO.TPOT * 1.3
	// If every division violates the guard, the TPOT SLO is
	// structurally out of reach; run unguarded rather than defaulting
	// arbitrarily.
	attainable := false
	for d := range a.model.Divisions {
		if a.model.Bucket(d, cfg).TPOTTail <= guard {
			attainable = true
			break
		}
	}
	best, bestV := 0, -1.0
	for d := range a.model.Divisions {
		b := a.model.Bucket(d, cfg)
		if attainable && b.TPOTTail > guard {
			continue
		}
		sp := a.model.Divisions[d].Split(e.Plat.Cores)
		v := b.FreqN * float64(sp.SharedCores()) * b.ThrN
		if v > bestV {
			best, bestV = d, v
		}
	}
	a.curDiv = best
	return placeDivision(e, a.model.Divisions[best], fullShareConfig(e.Plat.LLC.Ways))
}

// Tick implements colo.Manager.
func (a *AUFI) Tick(*colo.Env, float64) error { return nil }

// AURB is the resource-bound-only ablation: static balanced division,
// bound-aware tuner against the static SLOs.
type AURB struct {
	model  *Model
	opt    Options
	beWays int
	beMBA  int
}

// NewAURB builds the ablation from a profiled model.
func NewAURB(model *Model, opt Options) (*AURB, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	return &AURB{model: model, opt: opt.withDefaults()}, nil
}

// Name implements colo.Manager.
func (a *AURB) Name() string { return "AU-RB" }

// Interval implements colo.Manager.
func (a *AURB) Interval() float64 { return intervalS }

// balancedDivision is the static middle division.
const balancedDivision = 1

// Setup implements colo.Manager.
func (a *AURB) Setup(e *colo.Env) error {
	cfg := a.model.Configs[0]
	a.beWays, a.beMBA = cfg.BEWays, cfg.BEMBA
	return placeDivision(e, a.model.Divisions[balancedDivision], cfg)
}

// Tick implements colo.Manager: run only the collision-aware tuner,
// with the static SLOs (no slack analysis, no division switching).
func (a *AURB) Tick(e *colo.Env, now float64) error {
	if !e.HasBE() {
		return nil
	}
	st := e.Engine.Stats()
	mTTFT, mTPOT := st.TailTTFT(90), st.TailTPOT(90)
	meets := (mTTFT == 0 || mTTFT <= e.Scen.SLO.TTFT) && (mTPOT == 0 || mTPOT <= e.Scen.SLO.TPOT)
	sens := a.model.Sensitivities(balancedDivision)
	maxWays := e.Plat.LLC.Ways - 2
	if meets {
		if pickWays(sens, a.beWays, maxWays, a.beMBA) {
			a.beWays++
		} else {
			a.beMBA += 10
		}
	} else {
		if returnWaysFirst(sens, mTPOT > e.Scen.SLO.TPOT) {
			a.beWays--
		} else {
			a.beMBA -= 10
		}
	}
	a.beWays = clampInt(a.beWays, 1, maxWays)
	a.beMBA = clampInt(a.beMBA, 10, 100)
	return ApplyConfig(e, ResourceConfig{BEWays: a.beWays, BEMBA: a.beMBA})
}

// placeDivision adds the tasks on a division's regions and applies the
// resource configuration.
func placeDivision(e *colo.Env, d Division, cfg ResourceConfig) error {
	sp := d.Split(e.Plat.Cores)
	if err := manager.PlaceLLM(e, sp, manager.COSLLM, manager.COSLLM); err != nil {
		return err
	}
	if e.HasBE() && sp.SharedCores() > 0 {
		if err := e.AddBE(machine.Placement{CoreLo: sp.NoLo, CoreHi: sp.NoHi, SMTSlot: 0, COS: manager.COSBE}); err != nil {
			return err
		}
	}
	return ApplyConfig(e, cfg)
}

// repinDivision moves already-placed tasks onto a division's regions
// atomically.
func repinDivision(e *colo.Env, d Division) error {
	sp := d.Split(e.Plat.Cores)
	regions := []rdt.Region{
		{ID: e.PrefillID, Lo: sp.HiLo, Hi: sp.HiHi},
		{ID: e.DecodeID, Lo: sp.LoLo, Hi: sp.LoHi},
	}
	if e.BEID != 0 && sp.SharedCores() > 0 {
		regions = append(regions, rdt.Region{ID: e.BEID, Lo: sp.NoLo, Hi: sp.NoHi})
	}
	return e.RDT.PinAll(regions)
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

var (
	_ colo.Manager = (*AUUP)(nil)
	_ colo.Manager = (*AUFI)(nil)
	_ colo.Manager = (*AURB)(nil)
)
