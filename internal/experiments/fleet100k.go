package experiments

import (
	"time"

	"aum/internal/cluster"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/telemetry"
	"aum/internal/trace"
)

func init() {
	register(Experiment{ID: "fleet100k", Paper: "Section VIII (ext)",
		Title: "100k-machine fleet: archetype event core vs the fixed-cadence loop", Run: runFleet100k})
}

// runFleet100k is the scale benchmark for the event-queue fleet core:
// a heterogeneous 100k-machine fleet (GenA/GenB/GenC round-robin)
// serves one simulated hour of sparse chatbot traffic under archetype
// memoization, against a reference run of the exact event core (no
// archetypes) over a truncated horizon normalized to the same simulated
// span. The row and metric names keep their "legacy" labels, which the
// golden pins. The headline numbers — wall seconds and the speedup over
// the exact loop — are wall-clock
// measurements of the host, so those cells and metrics are masked for
// golden comparison; machines, simulated seconds, goodput, watts and
// the event-core counters are pinned. Quick fidelity
// shrinks the fleet to 10k machines and the horizon to five simulated
// minutes: the CI scale smoke.
func runFleet100k(l *Lab, o Options) (*Table, error) {
	o = o.withDefaults()
	machines, horizonS, refSimS := 100_000, 3600.0, 10.0
	if o.Quick {
		machines, horizonS, refSimS = 10_000, 300.0, 2.5
	}
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	plats := []platform.Platform{platform.GenA(), platform.GenB(), platform.GenC()}
	specs := make([]cluster.MachineSpec, machines)
	for i := range specs {
		specs[i] = cluster.MachineSpec{Plat: plats[i%3], Mgr: manager.AllAU{}}
	}
	base := cluster.Config{
		Machines: specs, Model: model, Scen: scen, Policy: cluster.RoundRobin,
		Seed: o.Seed, RatePerS: 2, Workers: l.Workers(),
	}

	// Reference: the exact event core over a truncated horizon (a full
	// hour at 100k machines is hours of wall clock), normalized per
	// simulated second. Warmup spans the whole
	// truncated run minus one barrier so the config stays valid.
	ref := base
	ref.HorizonS = refSimS
	ref.WarmupS = refSimS / 2
	refStart := time.Now()
	if _, err := cluster.Run(ref); err != nil {
		return nil, err
	}
	refWall := time.Since(refStart).Seconds()
	legacyEstS := refWall * horizonS / refSimS

	arch := base
	arch.HorizonS = horizonS
	arch.Archetypes = true
	reg := telemetry.NewRegistry()
	arch.Telemetry = reg
	archStart := time.Now()
	res, err := cluster.Run(arch)
	if err != nil {
		return nil, err
	}
	archWall := time.Since(archStart).Seconds()
	speedup := legacyEstS / archWall

	t := &Table{ID: "fleet100k",
		Title:   "Heterogeneous fleet at scale, archetype event core vs fixed cadence",
		Columns: []string{"machines", "sim-s", "wall-s", "sim-per-wall", "goodtok/s", "watts"}}
	t.AddRow("legacy-ref", float64(machines), refSimS, refWall, refSimS/refWall, 0, 0)
	t.AddRow("archetype", float64(machines), horizonS, archWall, horizonS/archWall,
		res.GoodTokensPS, res.Watts)
	t.SetMetric("machines", float64(machines))
	t.SetMetric("sim_seconds", horizonS)
	t.SetMetric("arch_wall_s", archWall)
	t.SetMetric("legacy_est_wall_s", legacyEstS)
	t.SetMetric("speedup_vs_legacy", speedup)
	// The event-core counters prove the run actually elided and
	// adopted (the CI scale job asserts both are non-zero).
	t.SetMetric("barriers_elided", float64(reg.Counter("aum_cluster_barriers_elided_total").Value()))
	t.SetMetric("archetype_hits", float64(reg.Counter("aum_cluster_archetype_hits_total").Value()))
	t.AddNote("legacy wall extrapolated from a %.1f simulated-second fixed-cadence run at the same fleet size; speedup recorded in Metrics", refSimS)
	return t, nil
}
