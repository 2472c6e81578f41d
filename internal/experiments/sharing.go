package experiments

import (
	"fmt"

	"aum/internal/colo"
	"aum/internal/core"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/trace"
	"aum/internal/workload"
)

func init() {
	register(Experiment{ID: "fig9", Paper: "Figure 9", Title: "SMT sharing impact on AU and shared applications", Run: runFig9})
	register(Experiment{ID: "fig10", Paper: "Figure 10", Title: "AUV-oblivious resource partitioning impact on AU performance", Run: runFig10})
	register(Experiment{ID: "fig12", Paper: "Figure 12", Title: "AU performance and frequency under processor dividings", Run: runFig12})
	register(Experiment{ID: "fig13", Paper: "Figure 13", Title: "AU performance vs LLC way allocation", Run: runFig13})
}

// smtShare places the LLM on all physical cores and the co-runner on
// the sibling threads of the first K cores (Figure 9's pressure knob).
type smtShare struct {
	K int
}

func (s smtShare) Name() string                  { return fmt.Sprintf("smt-share-%d", s.K) }
func (s smtShare) Interval() float64             { return 0 }
func (s smtShare) Tick(*colo.Env, float64) error { return nil }

func (s smtShare) Setup(e *colo.Env) error {
	sp := manager.NewSplit(e.Plat.Cores, 0.55, 0.45)
	sp.LoHi = e.Plat.Cores - 1
	if err := manager.PlaceLLM(e, sp, manager.COSLLM, manager.COSLLM); err != nil {
		return err
	}
	if s.K > 0 && e.HasBE() {
		return e.AddBE(machine.Placement{CoreLo: 0, CoreHi: s.K - 1, SMTSlot: 1, COS: manager.COSLLM})
	}
	return nil
}

func runFig9(l *Lab, o Options) (*Table, error) {
	plat := platform.GenA()
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	o = o.withDefaults()
	horizon, _, _ := o.horizons()

	// Cell 0 is the exclusive reference; the rest are the sharing cells.
	type cell struct {
		label string
		be    *workload.Profile
		k     int
	}
	cells := []cell{{label: "exclusive"}}
	olap := workload.OLAP()
	for _, k := range []int{24, 48, 72, 96} {
		cells = append(cells, cell{fmt.Sprintf("OLAP-k%d", k), &olap, k})
	}
	coRunners := workload.CoRunners()
	for i := range coRunners {
		cells = append(cells, cell{coRunners[i].Name + "-k96", &coRunners[i], plat.Cores})
	}

	type out struct {
		res  colo.Result
		solo float64
	}
	outs := make([]out, len(cells))
	err := l.Parallel(len(cells), func(i int) error {
		c := cells[i]
		res, err := colo.Run(colo.Config{Plat: plat, Model: model, Scen: scen, BE: c.be,
			Manager: smtShare{K: c.k}, HorizonS: horizon, Seed: o.Seed})
		if err != nil {
			return err
		}
		outs[i].res = res
		if c.be != nil {
			outs[i].solo = soloRate(plat, *c.be, c.k, o)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{ID: "fig9", Title: "SMT sharing: AU slowdown and shared-app degradation",
		Columns: []string{"AU-TPOT-x", "AU-TTFT-x", "shared-vs-alone"}}
	excl := outs[0].res
	for i, c := range cells[1:] {
		res, solo := outs[i+1].res, outs[i+1].solo
		rel := 0.0
		if solo > 0 {
			rel = res.PerfN / solo
		}
		t.AddRow(c.label, ratio(res.MeanTPOT, excl.MeanTPOT), ratio(res.MeanTTFT, excl.MeanTTFT), rel)
	}
	t.AddNote("paper: OLAP at full pressure slows AU >2x (memory contention); Compute causes ~40%% via frequency; shared apps lose >40%%")
	return t, nil
}

// soloRate measures a co-runner's throughput alone on k dedicated
// cores, the Figure 9 normalization baseline.
func soloRate(plat platform.Platform, be workload.Profile, k int, o Options) float64 {
	if k <= 0 {
		return 0
	}
	m := machine.New(plat)
	app := workload.New(be, o.Seed+3)
	id, err := m.AddTask(app, machine.Placement{CoreLo: 0, CoreHi: k - 1, SMTSlot: 0, COS: 0})
	if err != nil {
		return 0
	}
	steps := 3000
	if o.Quick {
		steps = 800
	}
	for i := 0; i < steps; i++ {
		m.Step(1e-3)
	}
	st, _ := m.Stats(id)
	return st.WorkRate()
}

func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}

// rpVariant is the Figure 10 partitioning matrix: which resources are
// isolated between the core-partitioned LLM and co-runner.
type rpVariant struct {
	name         string
	l2, llc, mbw bool
}

type rpManager struct {
	v rpVariant
}

func (r rpManager) Name() string                  { return "rp-" + r.v.name }
func (r rpManager) Interval() float64             { return 0 }
func (r rpManager) Tick(*colo.Env, float64) error { return nil }

func (r rpManager) Setup(e *colo.Env) error {
	sp := manager.NewSplit(e.Plat.Cores, 0.48, 0.22)
	if err := manager.PlaceLLM(e, sp, manager.COSLLM, manager.COSLLM); err != nil {
		return err
	}
	if e.HasBE() && sp.SharedCores() > 0 {
		if err := e.AddBE(machine.Placement{CoreLo: sp.NoLo, CoreHi: sp.NoHi, SMTSlot: 0, COS: manager.COSBE}); err != nil {
			return err
		}
	}
	ways := e.Plat.LLC.Ways
	if r.v.llc {
		be := ways / 3
		if err := e.RDT.AllocateWays(manager.COSLLM, 0, ways-1-be); err != nil {
			return err
		}
		if err := e.RDT.AllocateWays(manager.COSBE, ways-be, ways-1); err != nil {
			return err
		}
	}
	if r.v.mbw {
		if err := e.RDT.SetMBA(manager.COSBE, 30); err != nil {
			return err
		}
	}
	// L2 partitioning is a no-op on these parts: SPR/GNR L2 is private
	// per core, so isolating it between core-partitioned tenants moves
	// nothing — which is exactly why Figure 10 shows the smallest gain
	// for L2-only isolation.
	return nil
}

func runFig10(l *Lab, o Options) (*Table, error) {
	plat := platform.GenA()
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	jbb := workload.SPECjbb()
	o = o.withDefaults()
	horizon, _, _ := o.horizons()

	variants := []rpVariant{
		{name: "none"},
		{name: "L2-only", l2: true},
		{name: "LLC-only", llc: true},
		{name: "MBW-only", mbw: true},
		{name: "LLC+MBW", llc: true, mbw: true},
		{name: "inclusive", l2: true, llc: true, mbw: true},
	}
	t := &Table{ID: "fig10", Title: "LLM performance under resource partitioning (normalized to no isolation)",
		Columns: []string{"goodput", "TPOT-x", "sharedKops"}}
	results := make([]colo.Result, len(variants))
	err := l.Parallel(len(variants), func(i int) error {
		res, err := colo.Run(colo.Config{Plat: plat, Model: model, Scen: scen, BE: &jbb,
			Manager: rpManager{v: variants[i]}, HorizonS: horizon, Seed: o.Seed})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := results[0]
	for i, v := range variants {
		res := results[i]
		t.AddRow(v.name, ratio(res.PerfL, base.PerfL), ratio(res.MeanTPOT, base.MeanTPOT), res.PerfN/1e3)
	}
	t.AddNote("isolating single backend resources relieves AU slightly; inclusive partitioning helps most but is not optimal")
	return t, nil
}

// divManager pins the LLM to one of the candidate processor dividings
// with no co-runner, for Figure 12's dividing sensitivity.
type divManager struct {
	div core.Division
}

func (d divManager) Name() string                  { return "div-" + d.div.Name }
func (d divManager) Interval() float64             { return 0 }
func (d divManager) Tick(*colo.Env, float64) error { return nil }

func (d divManager) Setup(e *colo.Env) error {
	return manager.PlaceLLM(e, d.div.Split(e.Plat.Cores), manager.COSLLM, manager.COSLLM)
}

func runFig12(l *Lab, o Options) (*Table, error) {
	plat := platform.GenA()
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	o = o.withDefaults()
	horizon, _, _ := o.horizons()

	// Scenario 0 is the exclusive all-core reference; the rest are the
	// candidate dividings.
	divs := core.Divisions()
	results := make([]colo.Result, len(divs)+1)
	err := l.Parallel(len(results), func(i int) error {
		var mgr colo.Manager = manager.AllAU{}
		if i > 0 {
			mgr = divManager{div: divs[i-1]}
		}
		res, err := colo.Run(colo.Config{Plat: plat, Model: model, Scen: scen,
			Manager: mgr, HorizonS: horizon, Seed: o.Seed})
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	excl := results[0]
	t := &Table{ID: "fig12", Title: "AU performance and frequency lower bounds per dividing (vs exclusive all-core)",
		Columns: []string{"prefill-rel", "decode-rel", "freqH", "freqL"}}
	t.AddRow("exclusive", 1, 1, excl.MeanGHzPrefill, excl.MeanGHzDecode)
	for i, d := range divs {
		res := results[i+1]
		t.AddRow(d.Name, ratio(res.PerfH, excl.PerfH), ratio(res.PerfL, excl.PerfL),
			res.MeanGHzPrefill, res.MeanGHzDecode)
	}
	t.AddNote("smaller AU regions trade prefill guarantee for harvestable cores; decode barely moves (bandwidth-bound)")
	return t, nil
}

func runFig13(_ *Lab, _ Options) (*Table, error) {
	model := llm.Llama2_7B()
	waysSet := []int{2, 4, 6, 8, 10, 12, 15}
	cols := make([]string, len(waysSet))
	for i, w := range waysSet {
		cols[i] = fmt.Sprintf("w=%d", w)
	}
	t := &Table{ID: "fig13", Title: "Phase performance vs LLC ways (normalized to all ways)", Columns: cols}
	for _, plat := range []platform.Platform{platform.GenA(), platform.GenC()} {
		for _, ph := range []struct {
			name string
			plan llm.IterationPlan
			env  machine.Env
		}{
			{"prefill", model.PlanPrefill(8, 512), machine.Env{Plat: &plat, Cores: plat.Cores / 2, GHz: plat.License.AMXHeavy, ComputeShare: 1, L2MB: 96, BWGBs: plat.MemBWGBs * 0.5}},
			{"decode", model.PlanDecode(16, 600), machine.Env{Plat: &plat, Cores: plat.Cores / 3, GHz: plat.License.AVXHeavy, ComputeShare: 1, L2MB: 64, BWGBs: plat.MemBWGBs * 0.85}},
		} {
			env := ph.env
			env.LLCMB = plat.LLCWayMB() * float64(plat.LLC.Ways)
			base := 1 / llm.CostIteration(ph.plan, env).TotalS
			vals := make([]float64, len(waysSet))
			for i, w := range waysSet {
				e := ph.env
				e.LLCMB = plat.LLCWayMB() * float64(w)
				vals[i] = (1 / llm.CostIteration(ph.plan, e).TotalS) / base
			}
			t.AddRow(plat.Name+"/"+ph.name, vals...)
		}
	}
	t.AddNote("prefill on GenA is LLC-sensitive (activation working set ~ LLC size); GenC's 504MB LLC removes the sensitivity; decode streams and barely cares")
	return t, nil
}
