package cluster

import (
	"encoding/json"
	"math"
	"testing"

	"aum/internal/chaos"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/telemetry"
	"aum/internal/trace"
)

// diffFixtures are the configs the byte-identity sweep runs: every
// event source the elision predicate reasons about appears in at least
// one — arrival generators, QPS schedule, autoscaler watermarks and
// warming completions, fault injector with retries, disaggregated
// exports, and long idle gaps (the sparse rows) where elision actually
// fires.
func diffFixtures() map[string]Config {
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	hetero := func() []MachineSpec {
		return []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
		}
	}
	return map[string]Config{
		"fleet-auv": {
			Machines: hetero(), Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 24, Seed: 7, RatePerS: 3.0,
		},
		"fleet-autoscale": {
			Machines: []MachineSpec{
				{Plat: platform.GenB(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 24, Seed: 7, RatePerS: 1.0,
			QPS:       []RatePoint{{At: 8, RatePerS: 4.0}, {At: 16, RatePerS: 1.0}},
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		},
		"fleet-disagg": {
			Machines: []MachineSpec{
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: RolePrefill},
				{Plat: platform.GenB(), Mgr: manager.AllAU{}, Role: RoleDecode},
			},
			Model: model, Scen: scen, Policy: RoundRobin,
			HorizonS: 24, Seed: 7, RatePerS: 1.5,
		},
		"fleetchaos": {
			Machines: []MachineSpec{
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 24, Seed: 7, RatePerS: 2.0,
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
			Faults:    &FaultConfig{Schedule: chaos.CrashStorm(4, 2, 24, 3, 7)},
		},
		// Sparse traffic: mean arrival gap of ~20 barriers, so most
		// barriers are inert. This is the row that proves elided spans
		// replay byte-identically, not just that busy fleets never elide.
		"fleet-sparse": {
			Machines: hetero(), Model: model, Scen: scen, Policy: RoundRobin,
			HorizonS: 48, Seed: 7, RatePerS: 0.2,
		},
		"fleet-sparse-scaled": {
			Machines: []MachineSpec{
				{Plat: platform.GenB(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 48, Seed: 7, RatePerS: 0.25,
			QPS:       []RatePoint{{At: 16, RatePerS: 3.0}, {At: 32, RatePerS: 0.2}},
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		},
	}
}

func resultBytes(t *testing.T, cfg Config) []byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestEventDrivenByteIdentity is the compatibility lockdown: for every
// fixture, EventDriven runs must reproduce the legacy loop's Result
// byte-for-byte across worker widths 1/2/8 and fast-forward on/off.
func TestEventDrivenByteIdentity(t *testing.T) {
	prev := machine.FastForward()
	defer machine.SetFastForward(prev)
	for name, base := range diffFixtures() {
		t.Run(name, func(t *testing.T) {
			for _, ff := range []bool{true, false} {
				machine.SetFastForward(ff)
				ref := func() []byte {
					cfg := base
					cfg.Workers = 1
					return resultBytes(t, cfg)
				}()
				for _, w := range []int{1, 2, 8} {
					cfg := base
					cfg.Workers = w
					cfg.EventDriven = true
					if got := resultBytes(t, cfg); string(got) != string(ref) {
						t.Fatalf("ff=%v width=%d: EventDriven result diverges from legacy\nlegacy: %s\nevent:  %s",
							ff, w, ref, got)
					}
				}
			}
		})
	}
}

// TestEventDrivenElides proves the sparse fixtures actually exercise
// elision — a sweep that never elides would vacuously pass the
// identity test — and that the counter is exported under the
// documented name.
func TestEventDrivenElides(t *testing.T) {
	for _, name := range []string{"fleet-sparse", "fleet-sparse-scaled"} {
		cfg := diffFixtures()[name]
		cfg.EventDriven = true
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		elided := reg.Counter("aum_cluster_barriers_elided_total").Value()
		total := uint64(math.Round(cfg.HorizonS / 0.25))
		if elided == 0 {
			t.Fatalf("%s: no barriers elided; the differential suite is not exercising the event core", name)
		}
		t.Logf("%s: elided %d of %d barriers", name, elided, total)
	}
	// Busy fixtures must stay correct even when nothing can be elided.
	cfg := diffFixtures()["fleet-auv"]
	cfg.EventDriven = true
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestArchetypesEnvelope pins the validated envelope: configs outside
// it (non-round-robin policy, faults, autoscale, roles) must be
// rejected rather than silently produce approximate results.
func TestArchetypesEnvelope(t *testing.T) {
	base := func() Config {
		cfg := diffFixtures()["fleet-sparse"]
		cfg.Archetypes = true
		return cfg
	}
	if _, err := base().withDefaults(); err != nil {
		t.Fatalf("in-envelope config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Policy = AUVAware },
		func(c *Config) { c.Autoscale = &AutoscaleConfig{} },
		func(c *Config) { c.Faults = &FaultConfig{Schedule: chaos.CrashStorm(2, 1, 48, 3, 7)} },
		func(c *Config) { c.Machines[0].Role = RolePrefill },
		func(c *Config) { c.Source = trace.NewLiveSource() },
		func(c *Config) { c.ReqTrace = reqtrace.New(reqtrace.Config{}) },
	}
	for i, mut := range bad {
		cfg := base()
		mut(&cfg)
		if _, err := cfg.withDefaults(); err == nil {
			t.Fatalf("out-of-envelope mutation %d accepted", i)
		}
	}
}

// TestArchetypesApproximation runs an in-envelope fleet both ways and
// checks the archetype mode's aggregates land within the documented
// tolerance of the exact loop, with the memoization actually firing
// (adoption hits > 0, elided barriers > 0).
func TestArchetypesApproximation(t *testing.T) {
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	specs := make([]MachineSpec, 12)
	plats := []platform.Platform{platform.GenA(), platform.GenB(), platform.GenC()}
	for i := range specs {
		specs[i] = MachineSpec{Plat: plats[i%3], Mgr: manager.AllAU{}}
	}
	base := Config{
		Machines: specs, Model: model, Scen: scen, Policy: RoundRobin,
		HorizonS: 60, Seed: 13, RatePerS: 1.0,
	}
	exact, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Archetypes = true
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	approx, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("aum_cluster_archetype_hits_total").Value(); hits == 0 {
		t.Fatal("archetype memoization never fired; every machine took the exact path")
	}
	if elided := reg.Counter("aum_cluster_barriers_elided_total").Value(); elided == 0 {
		t.Fatal("no barriers elided in archetype mode")
	}
	within := func(field string, got, want, tol float64) {
		t.Helper()
		if want == 0 && got == 0 {
			return
		}
		if d := math.Abs(got-want) / math.Max(math.Abs(want), 1e-12); d > tol {
			t.Errorf("%s: archetype %v vs exact %v (%.2f%% off, tol %.0f%%)",
				field, got, want, 100*d, 100*tol)
		}
	}
	within("GoodTokensPS", approx.GoodTokensPS, exact.GoodTokensPS, 0.05)
	within("Watts", approx.Watts, exact.Watts, 0.05)
	within("PerfH", approx.PerfH, exact.PerfH, 0.05)
	within("MachineSecondsActive", approx.MachineSecondsActive, exact.MachineSecondsActive, 0.01)
	if approx.Unrouted != exact.Unrouted {
		t.Errorf("Unrouted: archetype %d vs exact %d", approx.Unrouted, exact.Unrouted)
	}
	// Routing is identical in-envelope (same generators, same
	// round-robin cursor), so request counts must match exactly.
	for i := range exact.PerNode {
		if approx.PerNode[i].Requests != exact.PerNode[i].Requests {
			t.Errorf("node %d requests: archetype %d vs exact %d",
				i, approx.PerNode[i].Requests, exact.PerNode[i].Requests)
		}
	}
}
