package aum

// The benchmark harness regenerates every paper table and figure under
// the Go benchmark driver (deliverable d): `go test -bench .` runs the
// full set in quick mode; individual artifacts run with e.g.
// `go test -bench BenchmarkExperiment/fig14`. The rendered tables land
// on stdout once per benchmark so a bench run doubles as a results
// regeneration pass. Microbenchmarks at the bottom cover the hot paths
// the paper's overhead analysis cares about (Section VII-D): the
// controller decision, the simulator step, and the kernel cost model.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aum/internal/cluster"
	"aum/internal/core"
	"aum/internal/experiments"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/membw"
	"aum/internal/platform"
	"aum/internal/power"
	"aum/internal/runner"
	"aum/internal/trace"
	"aum/internal/workload"
)

// benchLab is shared across experiment benchmarks so repeated b.N
// iterations hit the run cache instead of re-simulating.
var (
	benchLab     *experiments.Lab
	benchLabOnce sync.Once
)

func lab() *experiments.Lab {
	benchLabOnce.Do(func() { benchLab = experiments.NewLab() })
	return benchLab
}

var benchTableSink *experiments.Table

// BenchmarkExperiment regenerates every table and figure (quick
// fidelity). Each sub-benchmark prints its table once, so the bench
// output contains the full reproduced evaluation.
func BenchmarkExperiment(b *testing.B) {
	printed := map[string]bool{}
	for _, e := range experiments.Registry() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl, err := e.Run(lab(), experiments.Options{Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				benchTableSink = tbl
				if !printed[e.ID] {
					printed[e.ID] = true
					fmt.Printf("\n%s(%s)\n", tbl.Render(), e.Paper)
				}
			}
		})
	}
}

// BenchmarkFullSuiteQuick regenerates the entire registry against a
// fresh lab per iteration — the wall-clock figure the hot-path
// optimizations are judged by (run with -benchtime 1x in CI).
func BenchmarkFullSuiteQuick(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := experiments.NewLab()
		for _, e := range experiments.Registry() {
			tbl, err := e.Run(l, experiments.Options{Quick: true})
			if err != nil {
				b.Fatal(err)
			}
			benchTableSink = tbl
		}
	}
}

// BenchmarkRunnerForEach measures the per-scenario dispatch overhead of
// the parallel runner with trivial scenario bodies.
func BenchmarkRunnerForEach(b *testing.B) {
	b.ReportAllocs()
	out := make([]uint64, 256)
	for i := 0; i < b.N; i++ {
		err := runner.ForEach(context.Background(), len(out), runner.Options{},
			func(_ context.Context, j int) error {
				out[j] = uint64(j) * uint64(j)
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMachineStep measures one 1 ms simulator step with a typical
// three-task co-location (the inner loop of every experiment).
func BenchmarkMachineStep(b *testing.B) {
	b.ReportAllocs()
	plat := platform.GenA()
	m := machine.New(plat)
	jbb := workload.New(workload.SPECjbb(), 1)
	olap := workload.New(workload.OLAP(), 2)
	comp := workload.New(workload.Compute(), 3)
	if _, err := m.AddTask(jbb, machine.Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0, COS: 0}); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddTask(olap, machine.Placement{CoreLo: 48, CoreHi: 71, SMTSlot: 0, COS: 1}); err != nil {
		b.Fatal(err)
	}
	if _, err := m.AddTask(comp, machine.Placement{CoreLo: 72, CoreHi: 95, SMTSlot: 0, COS: 2}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step()
	}
}

// BenchmarkColoStep measures one full 1 ms step of the machine the
// paper tables step: GenA serving workers mid-iteration plus a bursty
// SPECjbb co-runner on the SMT siblings (coloStepLoop in perf.go).
func BenchmarkColoStep(b *testing.B) {
	b.ReportAllocs()
	step := coloStepLoop()
	for i := 0; i < 1000; i++ {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkFleetNodeReplay measures one replayed 1 ms step of an idle
// fleet node — a GenA machine under the exclusive baseline, built as a
// fleet session builds it — the per-node work of a sparse barrier.
func BenchmarkFleetNodeReplay(b *testing.B) {
	b.ReportAllocs()
	step := cluster.NodeReplayBenchLoop(NewExclusive(), 1)
	for i := 0; i < 100; i++ {
		step()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

var benchCostSink llm.IterationCost

// BenchmarkCostIteration measures the LLM iteration cost model, the
// kernel-level hot path of the serving workers.
func BenchmarkCostIteration(b *testing.B) {
	b.ReportAllocs()
	plat := platform.GenA()
	model := llm.Llama2_7B()
	plan := model.PlanDecode(16, 600)
	env := machine.Env{Plat: &plat, Cores: 29, GHz: 3.1, ComputeShare: 1,
		LLCMB: plat.TotalLLCMB(), L2MB: 58, BWGBs: plat.MemBWGBs * 0.8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCostSink = llm.CostIteration(plan, env)
	}
}

var benchSolSink power.Solution

// BenchmarkGovernorSolve measures the TDP/license frequency solve.
func BenchmarkGovernorSolve(b *testing.B) {
	b.ReportAllocs()
	gov := power.NewGovernor(platform.GenA())
	loads := []power.RegionLoad{
		{Cores: 53, Class: power.AMXHeavy, Util: 0.9},
		{Cores: 29, Class: power.AVXHeavy, Util: 0.6},
		{Cores: 14, Class: power.Scalar, Util: 0.9},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSolSink = gov.Solve(loads, 0)
	}
}

var benchGrantSink []float64

// BenchmarkMaxMin measures the bandwidth arbitration.
func BenchmarkMaxMin(b *testing.B) {
	b.ReportAllocs()
	dem := []float64{300, 40, 12, 5}
	wts := []float64{29, 53, 14, 4}
	caps := []float64{233, 233, 120, 40}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchGrantSink = membw.MaxMin(233.8, dem, wts, caps)
	}
}

var benchDecisionSink int

// BenchmarkControllerDecision measures the runtime controller's bucket
// search — the operation the paper bounds at <1 ms (Section VII-D).
func BenchmarkControllerDecision(b *testing.B) {
	m, err := core.Profile(platform.GenA(), llm.Llama2_7B(), trace.Chatbot(), workload.SPECjbb(),
		core.ProfilerOptions{Reps: 1, HorizonS: 4})
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := core.NewAUM(m, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	slo := trace.Chatbot().SLO
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDecisionSink, _ = mgr.BestBucket(slo.TTFT, slo.TPOT)
	}
}

// BenchmarkProfilerRun measures one profiling execution (one bucket,
// one repetition) — 450 of these build the paper-fidelity AUV model.
func BenchmarkProfilerRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := core.Profile(platform.GenA(), llm.Llama2_7B(), trace.Chatbot(), workload.SPECjbb(),
			core.ProfilerOptions{Reps: 1, HorizonS: 4, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the DESIGN.md design decisions.

// BenchmarkAblationBuckets sweeps the AUV-model granularity (decision 3
// in DESIGN.md): coarser tables profile faster; the default 3x5 is the
// paper's.
func BenchmarkAblationBuckets(b *testing.B) {
	for _, reps := range []int{1, 3} {
		b.Run(fmt.Sprintf("reps=%d", reps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, err := core.Profile(platform.GenA(), llm.Llama2_7B(), trace.Chatbot(), workload.SPECjbb(),
					core.ProfilerOptions{Reps: reps, HorizonS: 4, Seed: uint64(i) + 1})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
