package experiments

import (
	"aum/internal/cluster"
	"aum/internal/colo"
	"aum/internal/core"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/roofline"
	"aum/internal/trace"
	"aum/internal/workload"
)

// The extension experiments implement the directions Section VIII
// sketches (cluster scalability, topology adaptability) and the
// limitation Section VII-D concedes (no online learning). They go
// beyond the paper's evaluation but stay within its stated roadmap.

func init() {
	register(Experiment{ID: "cluster", Paper: "Section VIII (ext)", Title: "AUV-aware load balancing across a fleet", Run: runCluster})
	register(Experiment{ID: "online", Paper: "Section VII-D (ext)", Title: "Online refinement of the AUV model under drift", Run: runOnline})
	register(Experiment{ID: "sharedau", Paper: "Section VIII (ext)", Title: "Shared-AU (SME-style) topology impact", Run: runSharedAU})
}

// runCluster compares the three balancing policies over a mixed
// GenA+GenC fleet sharing SPECjbb under RP-per-node management.
func runCluster(l *Lab, o Options) (*Table, error) {
	o = o.withDefaults()
	horizon, _, _ := o.horizons()
	jbb := workload.SPECjbb()
	t := &Table{ID: "cluster", Title: "Heterogeneous fleet (GenA + HBM GenB) sharing SPECjbb under pressure",
		Columns: []string{"eff", "TPOT-guar", "TTFT-guar", "imbalance", "watts"}}
	policies := []cluster.BalancePolicy{cluster.RoundRobin, cluster.LeastQueued, cluster.AUVAware}
	results := make([]cluster.Result, len(policies))
	err := l.Parallel(len(policies), func(i int) error {
		res, err := cluster.Run(cluster.Config{
			// GenB's HBM gives it ~3x GenA's decode capacity; an even
			// split overloads GenA at this aggregate rate while GenB
			// coasts — exactly the heterogeneity Section VIII says
			// per-machine AUV should resolve.
			Machines: []cluster.MachineSpec{
				{Plat: platform.GenA(), Mgr: &manager.RPAU{}},
				{Plat: platform.GenB(), Mgr: &manager.RPAU{}},
			},
			Model:    llm.Llama2_7B(),
			Scen:     trace.Chatbot(),
			BE:       &jbb,
			Policy:   policies[i],
			HorizonS: horizon, Seed: o.Seed,
			RatePerS: 2.0,
		})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, pol := range policies {
		res := results[i]
		t.AddRow(pol.String(), res.Eff, res.TPOTGuar, res.TTFTGuar, res.Imbalance, res.Watts)
	}
	t.AddNote("the AUV-aware policy routes load toward per-machine AU capacity headroom instead of raw queue depth")
	return t, nil
}

// runOnline profiles against the stock SPECjbb, then serves a *drifted*
// co-runner (2x the per-core intensity and deeper bursts) with and
// without online model refinement.
func runOnline(l *Lab, o Options) (*Table, error) {
	o = o.withDefaults()
	horizon, _, _ := o.horizons()
	plat := platform.GenA()
	model := llm.Llama2_7B()
	scen := trace.CodeCompletion() // harvest-heavy: the division choice is model-driven
	stock := workload.SPECjbb()

	auv, err := l.Model(plat, model, scen, stock, o)
	if err != nil {
		return nil, err
	}

	// The drifted co-runner turns into a bandwidth hog after
	// profiling: the offline model still believes harvesting is cheap.
	drifted := workload.SPECjbb()
	drifted.ColdBytes *= 24
	drifted.ReuseBytes *= 4
	drifted.Util = 1.0

	t := &Table{ID: "online", Title: "AUM under post-profiling co-runner drift (SPECjbb at 2x intensity)",
		Columns: []string{"eff", "TPOT-guar", "jbb-kops", "watts", "refines"}}
	modes := []struct {
		name   string
		online bool
	}{{"offline-model", false}, {"online-refine", true}}
	type onlineOut struct {
		res     colo.Result
		refines int
	}
	outs := make([]onlineOut, len(modes))
	err = l.Parallel(len(modes), func(i int) error {
		// Work on a copy: refinement mutates the bucket table.
		cp := *auv
		cp.Buckets = append([]core.Bucket(nil), auv.Buckets...)
		mgr, err := core.NewAUM(&cp, core.Options{OnlineRefine: modes[i].online})
		if err != nil {
			return err
		}
		res, err := colo.Run(colo.Config{
			Plat: plat, Model: model, Scen: scen, BE: &drifted,
			Manager: mgr, HorizonS: horizon, Seed: o.Seed,
		})
		if err != nil {
			return err
		}
		outs[i] = onlineOut{res: res, refines: mgr.RefineSteps}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, mode := range modes {
		res := outs[i].res
		t.AddRow(mode.name, res.Eff, res.TPOTGuarantee, res.PerfN/1e3, res.Watts, float64(outs[i].refines))
	}
	t.AddNote("refinement folds measured tails and shared throughput back into the active bucket (EMA)")
	return t, nil
}

// runSharedAU contrasts the Intel private-AU layout with an SME-style
// pooled topology (one matrix unit per 4 cores): prefill scaling
// saturates at the pool width, which is the refinement Section VIII
// says the profiler would need for such hardware.
func runSharedAU(_ *Lab, _ Options) (*Table, error) {
	private := platform.GenA()
	pooled := platform.GenA()
	pooled.Name = "GenA-pooledAU"
	pooled.AUClusterSize = 4

	cores := []int{8, 16, 32, 48, 64, 96}
	cols := make([]string, len(cores))
	for i, c := range cores {
		cols[i] = itoa(c) + "c"
	}
	t := &Table{ID: "sharedau", Title: "Prefill GEMM TFLOPS vs cores: private AU vs one AU per 4 cores", Columns: cols}
	g := roofline.GEMM{M: 8192, K: 4096, N: 22016, DTypeBytes: 2}
	for _, plat := range []platform.Platform{private, pooled} {
		vals := make([]float64, len(cores))
		for i, c := range cores {
			env := roofline.Env{Plat: &plat, Cores: c, GHz: plat.License.AMXHeavy,
				BWGBs: plat.MemBWGBs, ComputeShare: 1}
			tm := roofline.GEMMCost(g, roofline.UnitAMX, g.WeightBytes(), env)
			vals[i] = roofline.EffectiveTFLOPS(g.Flops(), tm)
		}
		t.AddRow(plat.Name, vals...)
	}
	// Decode is bandwidth-bound either way.
	dec := llm.Llama2_7B().PlanDecode(16, 600)
	envP := machine.Env{Plat: &private, Cores: 29, GHz: 3.1, ComputeShare: 1, LLCMB: private.TotalLLCMB(), L2MB: 58, BWGBs: private.MemBWGBs * 0.8}
	envS := envP
	envS.Plat = &pooled
	t.AddNote("decode TPOT: private %.0f ms vs pooled %.0f ms (bandwidth-bound, pooling is nearly free)",
		1e3*llm.CostIteration(dec, envP).TotalS, 1e3*llm.CostIteration(dec, envS).TotalS)
	return t, nil
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
