package core

// Property tests for the modeled AUV performance surface. The runtime
// controller's bucket search, the serving workers' cost caches, and the
// profiler's sweep all assume the underlying iteration-cost model is
// well behaved: granting a phase more LLC, more memory bandwidth, or a
// higher frequency must never lower its modeled throughput, and the
// piecewise miss-curve buckets must join without jumps. These are
// seeded quick-check sweeps, deterministic by construction.

import (
	"math"
	"testing"

	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/rng"
)

// randomPlanEnv draws one (iteration plan, environment) sample from the
// realistic operating envelope of the simulator.
func randomPlanEnv(r *rng.Stream) (llm.IterationPlan, machine.Env) {
	plats := []platform.Platform{platform.GenA(), platform.GenB(), platform.GenC()}
	plat := plats[r.Intn(len(plats))]
	models := llm.Zoo()
	model := models[r.Intn(len(models))]
	batch := 1 + r.Intn(64)
	seqLen := 64 + r.Intn(1984)
	var plan llm.IterationPlan
	if r.Intn(2) == 0 {
		plan = model.PlanPrefill(batch, seqLen)
	} else {
		plan = model.PlanDecode(batch, seqLen)
	}
	env := machine.Env{
		Plat:         &plat,
		Cores:        4 + r.Intn(plat.Cores-3),
		GHz:          plat.License.AMXHeavy + r.Float64()*(plat.TurboGHz-plat.License.AMXHeavy),
		ComputeShare: 0.3 + 0.7*r.Float64(),
		LLCMB:        plat.TotalLLCMB() * (0.1 + 0.9*r.Float64()),
		L2MB:         float64(plat.L2.SizeKB) / 1024 * float64(4+r.Intn(plat.Cores-3)),
		BWGBs:        plat.MemBWGBs * (0.1 + 0.9*r.Float64()),
	}
	return plan, env
}

// sweepMonotone asserts that modeled iteration time is non-increasing
// along an ascending sweep of one environment knob.
func sweepMonotone(t *testing.T, name string, plan llm.IterationPlan, env machine.Env, lo, hi float64, set func(*machine.Env, float64)) {
	t.Helper()
	const steps = 64
	// Tolerate only float noise: a genuine regression dwarfs 1 part in 1e9.
	const tol = 1e-9
	prev := math.Inf(1)
	for s := 0; s <= steps; s++ {
		e := env
		set(&e, lo+(hi-lo)*float64(s)/steps)
		total := llm.CostIteration(plan, e).TotalS
		if !(total > 0) || math.IsInf(total, 0) {
			t.Fatalf("%s: non-finite iteration time %v", name, total)
		}
		if total > prev*(1+tol) {
			t.Fatalf("%s: modeled time rose from %v to %v at step %d (more resources made it slower)",
				name, prev, total, s)
		}
		prev = total
	}
}

// TestCostMonotoneInResources quick-checks that more LLC, more memory
// bandwidth, or a higher frequency never lowers modeled throughput,
// across random plans and environments.
func TestCostMonotoneInResources(t *testing.T) {
	const samples = 120
	for i := 0; i < samples; i++ {
		r := rng.Derive(2026, uint64(i))
		plan, env := randomPlanEnv(r)
		plat := env.Plat
		sweepMonotone(t, "LLCMB", plan, env, plat.LLCWayMB(), plat.TotalLLCMB(),
			func(e *machine.Env, v float64) { e.LLCMB = v })
		sweepMonotone(t, "BWGBs", plan, env, plat.MemBWGBs*0.05, plat.MemBWGBs,
			func(e *machine.Env, v float64) { e.BWGBs = v })
		sweepMonotone(t, "GHz", plan, env, plat.License.AMXHeavy*0.5, plat.TurboGHz,
			func(e *machine.Env, v float64) { e.GHz = v })
	}
}

// TestCostBucketContinuity sweeps LLC allocation through every
// miss-curve bucket boundary with a fine step and bounds the relative
// jump between neighbors: the piecewise model must join continuously,
// or the controller would see phantom efficiency cliffs between
// adjacent resource configurations.
func TestCostBucketContinuity(t *testing.T) {
	const samples = 40
	for i := 0; i < samples; i++ {
		r := rng.Derive(777, uint64(i))
		plan, env := randomPlanEnv(r)
		plat := env.Plat
		const steps = 400
		lo, hi := plat.LLCWayMB(), plat.TotalLLCMB()
		prev := -1.0
		for s := 0; s <= steps; s++ {
			e := env
			e.LLCMB = lo + (hi-lo)*float64(s)/steps
			total := llm.CostIteration(plan, e).TotalS
			if prev > 0 {
				jump := math.Abs(total-prev) / prev
				// A 0.25% LLC step must not move iteration time by >2%.
				if jump > 0.02 {
					t.Fatalf("sample %d: %.3f%% jump in iteration time across LLC step %d (%.4g -> %.4g MB)",
						i, 100*jump, s, e.LLCMB-(hi-lo)/steps, e.LLCMB)
				}
			}
			prev = total
		}
	}
}

// TestCostIgnoresNonCacheableEnvFields locks the invariant the serving
// workers' cost caches rely on: CostIteration reads only Plat, Cores,
// GHz, ComputeShare, LLCMB, and BWGBs, so two environments differing
// only in L2MB or LinkUtil must cost identically.
func TestCostIgnoresNonCacheableEnvFields(t *testing.T) {
	for i := 0; i < 50; i++ {
		r := rng.Derive(31337, uint64(i))
		plan, env := randomPlanEnv(r)
		base := llm.CostIteration(plan, env)
		alt := env
		alt.L2MB = env.L2MB*2 + 1
		alt.LinkUtil = 0.9
		if got := llm.CostIteration(plan, alt); got != base {
			t.Fatalf("sample %d: cost depends on L2MB/LinkUtil: %+v vs %+v", i, got, base)
		}
	}
}

// TestClassifyARIMonotone asserts the usage-level classification is
// monotone in arithmetic intensity and exact at its bucket boundaries.
func TestClassifyARIMonotone(t *testing.T) {
	if ClassifyARI(ARILowThreshold) != UsageLow || ClassifyARI(ARIHighThreshold) != UsageHigh {
		t.Fatal("threshold values must classify into the level they open")
	}
	if ClassifyARI(ARILowThreshold-1e-9) != UsageNone || ClassifyARI(ARIHighThreshold-1e-9) != UsageLow {
		t.Fatal("values just below a threshold must classify into the level beneath it")
	}
	prev := UsageNone
	for ari := 0.0; ari < 500; ari += 0.25 {
		lvl := ClassifyARI(ari)
		if lvl < prev {
			t.Fatalf("classification regressed from %v to %v at ARI %v", prev, lvl, ari)
		}
		prev = lvl
	}
}
