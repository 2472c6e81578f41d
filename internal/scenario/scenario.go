// Package scenario is the declarative workload DSL (DESIGN.md §11): a
// versioned JSON/JSONC format that names a complete fleet experiment —
// base trace, arrival shaping, rate/seed/horizon, fleet shape, and
// fault schedule — and a small compiler that lowers a scenario file
// into the existing trace/cluster/chaos configurations. The
// deterministic core is untouched: a scenario is pure data, and the
// compiled cluster.Config runs through exactly the machinery the
// Go-coded experiments use, so DSL-declared scenarios inherit the
// width-determinism and replay byte-identity contracts
// (DESIGN.md §6, §8, §9) for free. The fleet, fleetchaos and blame
// experiments declare their fleets as scenario files for that reason.
//
// Scenario files are swept through the experiment Lab by
// experiments.Matrix (aumbench -scenarios dir/); the library/
// directory ships the named scenario set EXPERIMENTS.md documents.
package scenario

import (
	"fmt"
	"math"

	"aum/internal/vcfg"
)

// Version is the scenario schema version this package reads.
const Version = 1

// Limits keep a hostile or fat-fingered scenario file from compiling
// into an absurd simulation (the fuzz harness drives Load straight
// into Compile, so every bound here is a denial-of-service guard too).
const (
	maxHorizonS     = 100_000 // ~28 simulated hours
	maxMachines     = 1024    // per group and per fleet
	maxTenants      = 1024
	maxFaultEvents  = 10_000
	maxQPSPoints    = 10_000
	minBurstGapS    = 1e-3
	maxShapeFactor  = 1e6
	maxRatePerS     = 1e6
	maxLengthTokens = 1 << 20
)

// Spec is one declarative scenario (schema version 1). Optional
// sections default to the smallest meaningful experiment: one GenA
// machine under exclusive AU use serving the chatbot trace at its
// default rate for the cluster-default horizon.
type Spec struct {
	// Version must equal 1.
	Version int `json:"version"`
	// Name labels the scenario's row in the matrix table.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Seed is the root random seed (0 selects 42, the repo default).
	Seed uint64 `json:"seed,omitempty"`
	// HorizonS is the simulated duration (0 selects the cluster
	// default of 40 s). Fractions elsewhere (at_frac, down_frac)
	// resolve against this value.
	HorizonS float64 `json:"horizon_s,omitempty"`
	// WarmupS is excluded from measurement (0 selects HorizonS/6).
	WarmupS float64 `json:"warmup_s,omitempty"`
	// Model names the served model (default "llama2-7b").
	Model string `json:"model,omitempty"`

	Base    *BaseSpec    `json:"base,omitempty"`
	Arrival *ArrivalSpec `json:"arrival,omitempty"`
	Fleet   *FleetSpec   `json:"fleet,omitempty"`
	Faults  *FaultSpec   `json:"faults,omitempty"`
}

// BaseSpec selects the request length/SLO family: either a named
// library trace or an inline log-normal length distribution.
type BaseSpec struct {
	// Trace names a built-in scenario: "cb" (chatbot), "code"
	// (HumanEval completion, alias "cc"), or "summ" (LongBench
	// summarization, alias "sm"). Mutually exclusive with the inline
	// fields.
	Trace string `json:"trace,omitempty"`

	// Inline length distribution (all five required together).
	Name        string   `json:"name,omitempty"`
	MeanInput   int      `json:"mean_input,omitempty"`
	MeanOutput  int      `json:"mean_output,omitempty"`
	SigmaInput  float64  `json:"sigma_input,omitempty"`
	SigmaOutput float64  `json:"sigma_output,omitempty"`
	SLO         *SLOSpec `json:"slo,omitempty"`
}

// SLOSpec is the latency target pair of an inline base.
type SLOSpec struct {
	TTFTs float64 `json:"ttft_s"`
	TPOTs float64 `json:"tpot_s"`
}

// ArrivalSpec shapes the offered load.
type ArrivalSpec struct {
	// RatePerS is the aggregate offered rate (0 selects the base
	// trace's default).
	RatePerS float64 `json:"rate_per_s,omitempty"`
	// Shape modulates the rate over time.
	Shape *ShapeSpec `json:"shape,omitempty"`
	// Tenants overlays a Zipf popularity-skewed multi-tenant mixture
	// on the base length distribution.
	Tenants *TenantsSpec `json:"tenants,omitempty"`
	// QPS is a step-function rate trace: each point re-targets the
	// aggregate rate from its time on (the autoscaler's input).
	QPS []QPSPointSpec `json:"qps,omitempty"`
}

// ShapeSpec selects an arrival-rate curve.
type ShapeSpec struct {
	// Kind is "constant", "diurnal", "flash", or "bursts".
	Kind string `json:"kind"`

	// diurnal: rate(t) = rate * (1 + amplitude*sin(2π(t/period+phase))).
	PeriodS   float64 `json:"period_s,omitempty"`
	Amplitude float64 `json:"amplitude,omitempty"`
	PhaseFrac float64 `json:"phase_frac,omitempty"`

	// flash: trapezoidal surge to Peak× between AtS and
	// AtS+RampS+HoldS+DecayS.
	AtS    float64 `json:"at_s,omitempty"`
	AtFrac float64 `json:"at_frac,omitempty"`
	RampS  float64 `json:"ramp_s,omitempty"`
	HoldS  float64 `json:"hold_s,omitempty"`
	DecayS float64 `json:"decay_s,omitempty"`
	Peak   float64 `json:"peak,omitempty"`

	// bursts: seeded storm windows of DurS seconds at Factor× the
	// base rate, spaced by exponential gaps with mean MeanGapS.
	MeanGapS float64 `json:"mean_gap_s,omitempty"`
	DurS     float64 `json:"dur_s,omitempty"`
	Factor   float64 `json:"factor,omitempty"`
}

// TenantsSpec is a Zipf-popularity multi-tenant mixture.
type TenantsSpec struct {
	// Count is the number of tenants (>= 1).
	Count int `json:"count"`
	// ZipfS is the skew exponent: tenant k has weight 1/(k+1)^s
	// (0 selects 1.1).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Spread scales the tail tenants' request lengths: the least
	// popular tenant's means are (1+Spread)× the base (default 0.5).
	Spread float64 `json:"spread,omitempty"`
}

// QPSPointSpec is one step of the offered-rate trace. Exactly one of
// AtS and AtFrac positions it (AtFrac resolves against HorizonS).
type QPSPointSpec struct {
	AtS      float64 `json:"at_s,omitempty"`
	AtFrac   float64 `json:"at_frac,omitempty"`
	RatePerS float64 `json:"rate_per_s"`
}

// FleetSpec shapes the machine fleet.
type FleetSpec struct {
	// Machines expands group by group, in order, into the fleet's
	// machine list (default: one GenA under "all-au").
	Machines []MachineGroupSpec `json:"machines,omitempty"`
	// Policy is "round-robin" (default), "least-queued", or
	// "auv-aware".
	Policy string `json:"policy,omitempty"`
	// BarrierS is the tick-barrier interval (0 selects 50 ms).
	BarrierS  float64        `json:"barrier_s,omitempty"`
	Autoscale *AutoscaleSpec `json:"autoscale,omitempty"`
	Link      *LinkSpec      `json:"link,omitempty"`
}

// MachineGroupSpec is a run of identical machines.
type MachineGroupSpec struct {
	// Platform is "GenA", "GenB", or "GenC".
	Platform string `json:"platform"`
	// Count is the group size (0 selects 1).
	Count int `json:"count,omitempty"`
	// Manager is a static scheme: "all-au" (default), "smt-au", or
	// "rp-au". (The profiled AUM controller needs an AUV model and is
	// driven from Go, not from scenario files.)
	Manager string `json:"manager,omitempty"`
	// Role is "mixed" (default), "prefill", or "decode".
	Role string `json:"role,omitempty"`
	// Standby machines start powered off in the autoscaler's pool.
	Standby bool `json:"standby,omitempty"`
	// Trace, when set, overrides the scenario's base trace for this
	// group (a separate routing class) — named traces only.
	Trace string `json:"trace,omitempty"`
}

// AutoscaleSpec mirrors cluster.AutoscaleConfig (zero = that default).
type AutoscaleSpec struct {
	MinActive    int     `json:"min_active,omitempty"`
	HighUtil     float64 `json:"high_util,omitempty"`
	LowUtil      float64 `json:"low_util,omitempty"`
	HoldBarriers int     `json:"hold_barriers,omitempty"`
	WarmupDelayS float64 `json:"warmup_delay_s,omitempty"`
}

// LinkSpec mirrors cluster.LinkConfig (zero = that default).
type LinkSpec struct {
	GBps     float64 `json:"gbps,omitempty"`
	LatencyS float64 `json:"latency_s,omitempty"`
}

// FaultSpec schedules fleet faults: a seeded crash storm, explicit
// events, or both (storm events fire alongside the explicit ones).
type FaultSpec struct {
	Storm  *StormSpec       `json:"storm,omitempty"`
	Events []FaultEventSpec `json:"events,omitempty"`
}

// StormSpec is the DSL form of chaos.CrashStorm.
type StormSpec struct {
	// Machines is the crash target pool: indices [0, Machines) of the
	// fleet's machine list.
	Machines int `json:"machines"`
	// Crashes is the outage count.
	Crashes int `json:"crashes"`
	// DownS (absolute) or DownFrac (fraction of HorizonS) sets each
	// outage's duration; exactly one must be positive.
	DownS    float64 `json:"down_s,omitempty"`
	DownFrac float64 `json:"down_frac,omitempty"`
}

// FaultEventSpec is the DSL form of chaos.FleetEvent.
type FaultEventSpec struct {
	AtS float64 `json:"at_s,omitempty"`
	// AtFrac positions the event as a fraction of HorizonS; exactly
	// one of AtS and AtFrac may be positive.
	AtFrac float64 `json:"at_frac,omitempty"`
	// Kind is "crash", "link-down", "link-brownout", or "straggler".
	Kind      string  `json:"kind"`
	Machine   int     `json:"machine"`
	DurationS float64 `json:"duration_s,omitempty"`
	// Factor parameterizes brownouts and stragglers, in (0, 1).
	Factor float64 `json:"factor,omitempty"`
}

const pkg = "scenario"

// bad wraps vcfg.Bad with this package's name so every validation
// failure carries a "scenario: Spec.<path> = <got>: must be <legal>"
// field path.
func bad(field string, got any, legal string) error {
	return vcfg.Bad(pkg, field, got, legal)
}

// finite rejects NaN and ±Inf, which a JSONC file cannot spell but a
// programmatically-built Spec can.
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return bad(field, v, "a finite number")
	}
	return nil
}

// Validate checks the spec against the schema. It does not resolve
// names (platforms, traces, models) — Compile does, with the same
// error idiom — so validation stays cheap enough for the fuzz harness
// to run on every parsed input.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return bad("Spec.Version", s.Version, fmt.Sprintf("%d (the schema version this build reads)", Version))
	}
	if s.Name == "" {
		return bad("Spec.Name", s.Name, "a non-empty scenario name")
	}
	if err := finite("Spec.HorizonS", s.HorizonS); err != nil {
		return err
	}
	if s.HorizonS < 0 || s.HorizonS > maxHorizonS {
		return bad("Spec.HorizonS", s.HorizonS, fmt.Sprintf("in (0, %g] (0 selects the 40 s default)", float64(maxHorizonS)))
	}
	if err := finite("Spec.WarmupS", s.WarmupS); err != nil {
		return err
	}
	if s.WarmupS < 0 {
		return bad("Spec.WarmupS", s.WarmupS, ">= 0 (0 selects HorizonS/6)")
	}
	if s.Base != nil {
		if err := s.Base.validate(); err != nil {
			return err
		}
	}
	if s.Arrival != nil {
		if err := s.Arrival.validate(); err != nil {
			return err
		}
	}
	if s.Fleet != nil {
		if err := s.Fleet.validate(); err != nil {
			return err
		}
	}
	if s.Faults != nil {
		if err := s.Faults.validate(); err != nil {
			return err
		}
	}
	return nil
}

func (b *BaseSpec) validate() error {
	inline := b.Name != "" || b.MeanInput != 0 || b.MeanOutput != 0 ||
		b.SigmaInput != 0 || b.SigmaOutput != 0 || b.SLO != nil
	if b.Trace != "" && inline {
		return bad("Spec.Base", b.Trace, "either a named trace or an inline distribution, not both")
	}
	if b.Trace != "" {
		if _, err := canonicalTrace("Spec.Base.Trace", b.Trace); err != nil {
			return err
		}
		return nil
	}
	if !inline {
		return bad("Spec.Base", "{}", "a named trace or an inline distribution")
	}
	if b.Name == "" {
		return bad("Spec.Base.Name", b.Name, "a non-empty name for the inline distribution")
	}
	if b.MeanInput < 1 || b.MeanInput > maxLengthTokens {
		return bad("Spec.Base.MeanInput", b.MeanInput, fmt.Sprintf("in [1, %d]", maxLengthTokens))
	}
	if b.MeanOutput < 1 || b.MeanOutput > maxLengthTokens {
		return bad("Spec.Base.MeanOutput", b.MeanOutput, fmt.Sprintf("in [1, %d]", maxLengthTokens))
	}
	if err := finite("Spec.Base.SigmaInput", b.SigmaInput); err != nil {
		return err
	}
	if b.SigmaInput <= 0 || b.SigmaInput > 4 {
		return bad("Spec.Base.SigmaInput", b.SigmaInput, "in (0, 4] (log-normal shape)")
	}
	if err := finite("Spec.Base.SigmaOutput", b.SigmaOutput); err != nil {
		return err
	}
	if b.SigmaOutput <= 0 || b.SigmaOutput > 4 {
		return bad("Spec.Base.SigmaOutput", b.SigmaOutput, "in (0, 4] (log-normal shape)")
	}
	if b.SLO == nil {
		return bad("Spec.Base.SLO", nil, "an SLO ({ttft_s, tpot_s}) for the inline distribution")
	}
	if err := finite("Spec.Base.SLO.TTFTs", b.SLO.TTFTs); err != nil {
		return err
	}
	if b.SLO.TTFTs <= 0 {
		return bad("Spec.Base.SLO.TTFTs", b.SLO.TTFTs, "> 0 seconds")
	}
	if err := finite("Spec.Base.SLO.TPOTs", b.SLO.TPOTs); err != nil {
		return err
	}
	if b.SLO.TPOTs <= 0 {
		return bad("Spec.Base.SLO.TPOTs", b.SLO.TPOTs, "> 0 seconds")
	}
	return nil
}

func (a *ArrivalSpec) validate() error {
	if err := finite("Spec.Arrival.RatePerS", a.RatePerS); err != nil {
		return err
	}
	if a.RatePerS < 0 || a.RatePerS > maxRatePerS {
		return bad("Spec.Arrival.RatePerS", a.RatePerS, fmt.Sprintf("in [0, %g] (0 selects the base trace default)", float64(maxRatePerS)))
	}
	if a.Shape != nil {
		if err := a.Shape.validate(); err != nil {
			return err
		}
	}
	if a.Tenants != nil {
		if err := a.Tenants.validate(); err != nil {
			return err
		}
	}
	if len(a.QPS) > maxQPSPoints {
		return bad("Spec.Arrival.QPS", len(a.QPS), fmt.Sprintf("at most %d points", maxQPSPoints))
	}
	for i, p := range a.QPS {
		field := func(f string) string { return fmt.Sprintf("Spec.Arrival.QPS[%d].%s", i, f) }
		if err := finite(field("AtS"), p.AtS); err != nil {
			return err
		}
		if err := finite(field("AtFrac"), p.AtFrac); err != nil {
			return err
		}
		if (p.AtS > 0) == (p.AtFrac > 0) || p.AtS < 0 || p.AtFrac < 0 || p.AtFrac >= 1 {
			return bad(field("AtS/AtFrac"), fmt.Sprintf("at_s=%v at_frac=%v", p.AtS, p.AtFrac), "exactly one of at_s > 0 or at_frac in (0, 1)")
		}
		if err := finite(field("RatePerS"), p.RatePerS); err != nil {
			return err
		}
		if p.RatePerS <= 0 || p.RatePerS > maxRatePerS {
			return bad(field("RatePerS"), p.RatePerS, fmt.Sprintf("in (0, %g]", float64(maxRatePerS)))
		}
	}
	return nil
}

func (sh *ShapeSpec) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PeriodS", sh.PeriodS}, {"Amplitude", sh.Amplitude}, {"PhaseFrac", sh.PhaseFrac},
		{"AtS", sh.AtS}, {"AtFrac", sh.AtFrac}, {"RampS", sh.RampS}, {"HoldS", sh.HoldS},
		{"DecayS", sh.DecayS}, {"Peak", sh.Peak},
		{"MeanGapS", sh.MeanGapS}, {"DurS", sh.DurS}, {"Factor", sh.Factor},
	} {
		if err := finite("Spec.Arrival.Shape."+f.name, f.v); err != nil {
			return err
		}
	}
	switch sh.Kind {
	case "constant":
		return nil
	case "diurnal":
		if sh.PeriodS <= 0 || sh.PeriodS > maxHorizonS {
			return bad("Spec.Arrival.Shape.PeriodS", sh.PeriodS, fmt.Sprintf("in (0, %g]", float64(maxHorizonS)))
		}
		if sh.Amplitude < 0 || sh.Amplitude >= 1 {
			return bad("Spec.Arrival.Shape.Amplitude", sh.Amplitude, "in [0, 1) (1 would stall the thinning sampler at the trough)")
		}
		if sh.PhaseFrac < 0 || sh.PhaseFrac >= 1 {
			return bad("Spec.Arrival.Shape.PhaseFrac", sh.PhaseFrac, "in [0, 1)")
		}
		return nil
	case "flash":
		if (sh.AtS > 0) == (sh.AtFrac > 0) || sh.AtS < 0 || sh.AtFrac < 0 || sh.AtFrac >= 1 {
			return bad("Spec.Arrival.Shape.AtS/AtFrac", fmt.Sprintf("at_s=%v at_frac=%v", sh.AtS, sh.AtFrac), "exactly one of at_s > 0 or at_frac in (0, 1)")
		}
		if sh.RampS < 0 || sh.HoldS < 0 || sh.DecayS < 0 || sh.RampS+sh.HoldS+sh.DecayS <= 0 {
			return bad("Spec.Arrival.Shape.RampS+HoldS+DecayS", sh.RampS+sh.HoldS+sh.DecayS, "> 0 with each leg >= 0")
		}
		if sh.Peak < 1 || sh.Peak > maxShapeFactor {
			return bad("Spec.Arrival.Shape.Peak", sh.Peak, fmt.Sprintf("in [1, %g]", float64(maxShapeFactor)))
		}
		return nil
	case "bursts":
		if sh.MeanGapS < minBurstGapS || sh.MeanGapS > maxHorizonS {
			return bad("Spec.Arrival.Shape.MeanGapS", sh.MeanGapS, fmt.Sprintf("in [%g, %g]", float64(minBurstGapS), float64(maxHorizonS)))
		}
		if sh.DurS <= 0 || sh.DurS > maxHorizonS {
			return bad("Spec.Arrival.Shape.DurS", sh.DurS, fmt.Sprintf("in (0, %g]", float64(maxHorizonS)))
		}
		if sh.Factor < 1 || sh.Factor > maxShapeFactor {
			return bad("Spec.Arrival.Shape.Factor", sh.Factor, fmt.Sprintf("in [1, %g]", float64(maxShapeFactor)))
		}
		return nil
	}
	return bad("Spec.Arrival.Shape.Kind", sh.Kind, `"constant", "diurnal", "flash", or "bursts"`)
}

func (t *TenantsSpec) validate() error {
	if t.Count < 1 || t.Count > maxTenants {
		return bad("Spec.Arrival.Tenants.Count", t.Count, fmt.Sprintf("in [1, %d]", maxTenants))
	}
	if err := finite("Spec.Arrival.Tenants.ZipfS", t.ZipfS); err != nil {
		return err
	}
	if t.ZipfS < 0 || t.ZipfS > 8 {
		return bad("Spec.Arrival.Tenants.ZipfS", t.ZipfS, "in [0, 8] (0 selects 1.1)")
	}
	if err := finite("Spec.Arrival.Tenants.Spread", t.Spread); err != nil {
		return err
	}
	if t.Spread < 0 || t.Spread > 16 {
		return bad("Spec.Arrival.Tenants.Spread", t.Spread, "in [0, 16] (0 selects 0.5)")
	}
	return nil
}

func (f *FleetSpec) validate() error {
	total := 0
	for i, g := range f.Machines {
		field := func(s string) string { return fmt.Sprintf("Spec.Fleet.Machines[%d].%s", i, s) }
		if g.Platform == "" {
			return bad(field("Platform"), g.Platform, `"GenA", "GenB", or "GenC"`)
		}
		if g.Count < 0 || g.Count > maxMachines {
			return bad(field("Count"), g.Count, fmt.Sprintf("in [0, %d] (0 selects 1)", maxMachines))
		}
		switch g.Manager {
		case "", "all-au", "smt-au", "rp-au":
		default:
			return bad(field("Manager"), g.Manager, `"all-au" (default), "smt-au", or "rp-au"`)
		}
		switch g.Role {
		case "", "mixed", "prefill", "decode":
		default:
			return bad(field("Role"), g.Role, `"mixed" (default), "prefill", or "decode"`)
		}
		if g.Trace != "" {
			if _, err := canonicalTrace(field("Trace"), g.Trace); err != nil {
				return err
			}
		}
		n := g.Count
		if n == 0 {
			n = 1
		}
		total += n
	}
	if total > maxMachines {
		return bad("Spec.Fleet.Machines", total, fmt.Sprintf("at most %d machines in total", maxMachines))
	}
	switch f.Policy {
	case "", "round-robin", "least-queued", "auv-aware":
	default:
		return bad("Spec.Fleet.Policy", f.Policy, `"round-robin" (default), "least-queued", or "auv-aware"`)
	}
	if err := finite("Spec.Fleet.BarrierS", f.BarrierS); err != nil {
		return err
	}
	if f.BarrierS < 0 {
		return bad("Spec.Fleet.BarrierS", f.BarrierS, ">= 0 (0 selects the 50 ms default)")
	}
	if f.Autoscale != nil {
		for _, v := range []struct {
			name string
			v    float64
		}{
			{"HighUtil", f.Autoscale.HighUtil}, {"LowUtil", f.Autoscale.LowUtil},
			{"WarmupDelayS", f.Autoscale.WarmupDelayS},
		} {
			if err := finite("Spec.Fleet.Autoscale."+v.name, v.v); err != nil {
				return err
			}
		}
		// Range validation is cluster's (vcfg-reported there); only the
		// obviously-nonsensical negatives are rejected here.
		if f.Autoscale.MinActive < 0 || f.Autoscale.HoldBarriers < 0 || f.Autoscale.WarmupDelayS < 0 {
			return bad("Spec.Fleet.Autoscale", "negative field", "non-negative knobs (zero selects the cluster defaults)")
		}
	}
	if f.Link != nil {
		if err := finite("Spec.Fleet.Link.GBps", f.Link.GBps); err != nil {
			return err
		}
		if err := finite("Spec.Fleet.Link.LatencyS", f.Link.LatencyS); err != nil {
			return err
		}
		if f.Link.GBps < 0 || f.Link.LatencyS < 0 {
			return bad("Spec.Fleet.Link", "negative field", "non-negative link parameters (zero selects the cluster defaults)")
		}
	}
	return nil
}

func (f *FaultSpec) validate() error {
	if f.Storm == nil && len(f.Events) == 0 {
		return bad("Spec.Faults", "{}", "a storm, explicit events, or both")
	}
	if f.Storm != nil {
		st := f.Storm
		if st.Machines < 1 || st.Machines > maxMachines {
			return bad("Spec.Faults.Storm.Machines", st.Machines, fmt.Sprintf("in [1, %d]", maxMachines))
		}
		if st.Crashes < 1 || st.Crashes > maxFaultEvents {
			return bad("Spec.Faults.Storm.Crashes", st.Crashes, fmt.Sprintf("in [1, %d]", maxFaultEvents))
		}
		if err := finite("Spec.Faults.Storm.DownS", st.DownS); err != nil {
			return err
		}
		if err := finite("Spec.Faults.Storm.DownFrac", st.DownFrac); err != nil {
			return err
		}
		if (st.DownS > 0) == (st.DownFrac > 0) || st.DownS < 0 || st.DownFrac < 0 || st.DownFrac >= 1 {
			return bad("Spec.Faults.Storm.DownS/DownFrac", fmt.Sprintf("down_s=%v down_frac=%v", st.DownS, st.DownFrac), "exactly one of down_s > 0 or down_frac in (0, 1)")
		}
	}
	if len(f.Events) > maxFaultEvents {
		return bad("Spec.Faults.Events", len(f.Events), fmt.Sprintf("at most %d events", maxFaultEvents))
	}
	for i, ev := range f.Events {
		field := func(s string) string { return fmt.Sprintf("Spec.Faults.Events[%d].%s", i, s) }
		for _, v := range []struct {
			name string
			v    float64
		}{{"AtS", ev.AtS}, {"AtFrac", ev.AtFrac}, {"DurationS", ev.DurationS}, {"Factor", ev.Factor}} {
			if err := finite(field(v.name), v.v); err != nil {
				return err
			}
		}
		if (ev.AtS > 0) == (ev.AtFrac > 0) || ev.AtS < 0 || ev.AtFrac < 0 || ev.AtFrac >= 1 {
			return bad(field("AtS/AtFrac"), fmt.Sprintf("at_s=%v at_frac=%v", ev.AtS, ev.AtFrac), "exactly one of at_s > 0 or at_frac in (0, 1)")
		}
		switch ev.Kind {
		case "crash", "link-down":
		case "link-brownout", "straggler":
			if ev.Factor <= 0 || ev.Factor >= 1 {
				return bad(field("Factor"), ev.Factor, "in (0, 1) for brownouts and stragglers")
			}
		default:
			return bad(field("Kind"), ev.Kind, `"crash", "link-down", "link-brownout", or "straggler"`)
		}
		if ev.Machine < 0 || ev.Machine >= maxMachines {
			return bad(field("Machine"), ev.Machine, fmt.Sprintf("a machine index in [0, %d)", maxMachines))
		}
		if ev.DurationS < 0 {
			return bad(field("DurationS"), ev.DurationS, ">= 0 (0 makes the fault permanent)")
		}
	}
	return nil
}

// canonicalTrace maps the DSL's trace names (and the internal short
// names) to the trace package's canonical scenario names; field is the
// dotted path reported on failure.
func canonicalTrace(field, name string) (string, error) {
	switch name {
	case "cb", "chatbot":
		return "cb", nil
	case "cc", "code":
		return "cc", nil
	case "sm", "summ":
		return "sm", nil
	}
	return "", bad(field, name, `"cb"/"chatbot", "code"/"cc", or "summ"/"sm"`)
}
