package scenario

import (
	"fmt"

	"aum/internal/chaos"
	"aum/internal/cluster"
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/serve"
	"aum/internal/trace"
)

// Compile validates the spec and lowers it into a cluster.Config ready
// for cluster.Run. The compiler resolves names (platform, model, trace,
// policy), expands machine groups, attaches arrival shapers to the base
// scenario, and materializes the fault schedule; everything else is the
// cluster layer's own validation and defaulting, so a scenario cannot
// reach states a Go-built Config cannot.
func (s *Spec) Compile() (cluster.Config, error) {
	if err := s.Validate(); err != nil {
		return cluster.Config{}, err
	}

	seed := s.Seed
	if seed == 0 {
		seed = 42
	}
	horizon := s.HorizonS
	if horizon == 0 {
		horizon = 40 // the cluster default, restated so fractions resolve
	}

	base, err := s.baseScenario()
	if err != nil {
		return cluster.Config{}, err
	}

	cfg := cluster.Config{
		Scen:     base,
		HorizonS: s.HorizonS,
		WarmupS:  s.WarmupS,
		Seed:     s.Seed,
	}
	if s.Model != "" {
		m, err := llm.ByName(s.Model)
		if err != nil {
			return cluster.Config{}, bad("Spec.Model", s.Model, "a model from the zoo (llama2-7b, llama2-13b, phi-3-mini, llama3-8b, gemma2-9b, qwen3-30b-a3b)")
		}
		cfg.Model = m
	}

	if a := s.Arrival; a != nil {
		cfg.RatePerS = a.RatePerS
		if a.Shape != nil {
			shaper, err := a.Shape.compile(horizon, seed)
			if err != nil {
				return cluster.Config{}, err
			}
			cfg.Scen.Shape = shaper
		}
		if a.Tenants != nil {
			zs := a.Tenants.ZipfS
			if zs == 0 {
				zs = 1.1
			}
			spread := a.Tenants.Spread
			if spread == 0 {
				spread = 0.5
			}
			cfg.Scen.Mix = trace.ZipfMix(base, a.Tenants.Count, zs, spread)
		}
		// A shaped or mixed class is a different stream than its base
		// trace; give it the scenario's own name so per-machine plain
		// trace overrides stay distinct routing classes.
		if a.Shape != nil || a.Tenants != nil {
			cfg.Scen.Name = s.Name
		}
		for _, p := range a.QPS {
			at := p.AtS
			if p.AtFrac > 0 {
				at = p.AtFrac * horizon
			}
			cfg.QPS = append(cfg.QPS, cluster.RatePoint{At: at, RatePerS: p.RatePerS})
		}
	}

	fleet := s.Fleet
	if fleet == nil {
		fleet = &FleetSpec{}
	}
	groups := fleet.Machines
	if len(groups) == 0 {
		groups = []MachineGroupSpec{{Platform: "GenA"}}
	}
	for i, g := range groups {
		plat, err := platform.ByName(g.Platform)
		if err != nil {
			return cluster.Config{}, bad(fieldf("Spec.Fleet.Machines[%d].Platform", i), g.Platform, `"GenA", "GenB", or "GenC"`)
		}
		spec := cluster.MachineSpec{
			Plat:    plat,
			Mgr:     compileManager(g.Manager),
			Role:    compileRole(g.Role),
			Standby: g.Standby,
		}
		if g.Trace != "" {
			canon, err := canonicalTrace(fieldf("Spec.Fleet.Machines[%d].Trace", i), g.Trace)
			if err != nil {
				return cluster.Config{}, err
			}
			sc, err := trace.ByName(canon)
			if err != nil {
				return cluster.Config{}, err
			}
			spec.Scen = &sc
		}
		n := g.Count
		if n == 0 {
			n = 1
		}
		for k := 0; k < n; k++ {
			cfg.Machines = append(cfg.Machines, spec)
		}
	}
	if fleet.Policy != "" {
		pol, err := cluster.ParseBalancePolicy(fleet.Policy)
		if err != nil {
			return cluster.Config{}, bad("Spec.Fleet.Policy", fleet.Policy, `"round-robin", "least-queued", or "auv-aware"`)
		}
		cfg.Policy = pol
	}
	cfg.BarrierS = fleet.BarrierS
	if a := fleet.Autoscale; a != nil {
		cfg.Autoscale = &cluster.AutoscaleConfig{
			MinActive: a.MinActive, HighUtil: a.HighUtil, LowUtil: a.LowUtil,
			HoldBarriers: a.HoldBarriers, WarmupDelayS: a.WarmupDelayS,
		}
	}
	if l := fleet.Link; l != nil {
		cfg.Link = cluster.LinkConfig{GBps: l.GBps, LatencyS: l.LatencyS}
	}

	if f := s.Faults; f != nil {
		sched := chaos.FleetSchedule{Seed: seed}
		if st := f.Storm; st != nil {
			down := st.DownS
			if st.DownFrac > 0 {
				down = st.DownFrac * horizon
			}
			sched = chaos.CrashStorm(st.Machines, st.Crashes, horizon, down, seed)
		}
		for _, ev := range f.Events {
			at := ev.AtS
			if ev.AtFrac > 0 {
				at = ev.AtFrac * horizon
			}
			sched.Events = append(sched.Events, chaos.FleetEvent{
				At:       at,
				Kind:     compileFaultKind(ev.Kind),
				Machine:  ev.Machine,
				Duration: ev.DurationS,
				Factor:   ev.Factor,
			})
		}
		cfg.Faults = &sched
	}
	return cfg, nil
}

// baseScenario resolves the base trace / inline distribution.
func (s *Spec) baseScenario() (trace.Scenario, error) {
	b := s.Base
	if b == nil {
		b = &BaseSpec{Trace: "cb"}
	}
	if b.Trace != "" {
		canon, err := canonicalTrace("Spec.Base.Trace", b.Trace)
		if err != nil {
			return trace.Scenario{}, err
		}
		return trace.ByName(canon)
	}
	return trace.Scenario{
		Name:       b.Name,
		Dataset:    "inline",
		SLO:        serve.SLO{TTFT: b.SLO.TTFTs, TPOT: b.SLO.TPOTs},
		MeanInput:  b.MeanInput,
		MeanOutput: b.MeanOutput,
		SigmaInput: b.SigmaInput, SigmaOutput: b.SigmaOutput,
		RatePerS: 1,
	}, nil
}

// compile lowers a validated ShapeSpec into a trace.Shaper. Fractions
// resolve against the run horizon; the burst storm derives its windows
// from the scenario seed.
func (sh *ShapeSpec) compile(horizonS float64, seed uint64) (trace.Shaper, error) {
	switch sh.Kind {
	case "constant":
		return nil, nil
	case "diurnal":
		return trace.Diurnal{PeriodS: sh.PeriodS, Amplitude: sh.Amplitude, PhaseFrac: sh.PhaseFrac}, nil
	case "flash":
		at := sh.AtS
		if sh.AtFrac > 0 {
			at = sh.AtFrac * horizonS
		}
		return trace.FlashCrowd{AtS: at, RampS: sh.RampS, HoldS: sh.HoldS, DecayS: sh.DecayS, Peak: sh.Peak}, nil
	case "bursts":
		return trace.NewBurstStorm(sh.MeanGapS, sh.DurS, sh.Factor, horizonS, seed), nil
	}
	return nil, bad("Spec.Arrival.Shape.Kind", sh.Kind, `"constant", "diurnal", "flash", or "bursts"`)
}

// compileManager maps a validated manager name to its scheme.
func compileManager(name string) colo.Manager {
	switch name {
	case "smt-au":
		return manager.SMTAU{}
	case "rp-au":
		return &manager.RPAU{}
	}
	return manager.AllAU{}
}

// compileRole maps a validated role name.
func compileRole(name string) cluster.Role {
	switch name {
	case "prefill":
		return cluster.RolePrefill
	case "decode":
		return cluster.RoleDecode
	}
	return cluster.RoleMixed
}

// compileFaultKind maps a validated fault kind name.
func compileFaultKind(name string) chaos.FleetKind {
	switch name {
	case "link-down":
		return chaos.LinkDown
	case "link-brownout":
		return chaos.LinkBrownout
	case "straggler":
		return chaos.Straggler
	}
	return chaos.MachineCrash
}

func fieldf(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}
