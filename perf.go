package aum

// Fast-forward control and in-process hot-path measurement. The
// toggle re-exports the quiescence replay layer (DESIGN.md §9); the
// measurement lets cmd/aumbench record the simulator's per-step cost
// and allocation count in BENCH_results.json without depending on
// `go test -bench`.

import (
	"runtime"
	"time"

	"aum/internal/cluster"
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/rdt"
	"aum/internal/reqtrace"
	"aum/internal/serve"
	"aum/internal/trace"
	"aum/internal/workload"
)

// SetFastForward toggles quiescence-aware fast-forward (DESIGN.md §9)
// process-wide. It is enabled by default; results are byte-identical
// either way — the toggle exists for debugging and for measuring the
// layer's speedup.
func SetFastForward(on bool) { machine.SetFastForward(on) }

// FastForward reports whether quiescence-aware fast-forward is
// enabled.
func FastForward() bool { return machine.FastForward() }

// HotPathBench is one in-process microbenchmark result, the schema
// recorded under "hot_paths" in BENCH_results.json.
type HotPathBench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// measureLoop times iters calls of f after warm warmup calls,
// reporting mean wall time and heap allocations per call.
func measureLoop(name string, warm, iters int, f func()) HotPathBench {
	for i := 0; i < warm; i++ {
		f()
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return HotPathBench{
		Name:        name,
		NsPerOp:     float64(wall.Nanoseconds()) / float64(iters),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(iters),
	}
}

// benchMachine builds the three-task co-location BenchmarkMachineStep
// uses: the inner loop of every experiment.
func benchMachine() *machine.Machine {
	plat := platform.GenA()
	m := machine.New(plat)
	profs := []workload.Profile{workload.SPECjbb(), workload.OLAP(), workload.Compute()}
	for i, p := range profs {
		lo := i * 32
		if _, err := m.AddTask(workload.New(p, uint64(i+1)), machine.Placement{
			CoreLo: lo, CoreHi: lo + 31, SMTSlot: 0, COS: i,
		}); err != nil {
			panic(err)
		}
	}
	return m
}

// coloStepLoop returns a closure that takes one full 1 ms step of the
// machine the paper tables step: GenA serving llama2-7b with its
// prefill and decode workers placed as NewExclusive places them, a
// bursty SPECjbb co-runner on every core's SMT sibling (NewSMTSharing's
// layout), and both workers mid-iteration on queued requests. The
// co-runner never quiesces, so every step is a full one. The decode
// batch is full with requests that never finish, and the prefill queue
// holds about 20 simulated minutes of prompts (one takes ~0.3 s).
func coloStepLoop() func() {
	plat := platform.GenA()
	m := machine.New(plat)
	scen := trace.Chatbot()
	eng := serve.NewEngine(serve.Config{Model: llm.Llama2_7B(), SLO: scen.SLO})
	env := &colo.Env{Plat: plat, M: m, RDT: rdt.New(m), Engine: eng, Scen: scen,
		BEApp: workload.New(workload.SPECjbb(), 7)}
	if err := NewSMTSharing().Setup(env); err != nil {
		panic(err)
	}
	const queued = 4096
	for i := 0; i < queued; i++ {
		if err := eng.Submit(&serve.Request{ID: i + 1, PromptLen: 512, OutputLen: 1 << 30}); err != nil {
			panic(err)
		}
	}
	const dt = 1e-3
	for eng.DecodeBatch() < eng.Config().MaxBatch {
		m.Step(dt)
	}
	return func() { m.Step(dt) }
}

// MeasureHotPaths benchmarks the simulator hot paths in-process —
// the same loops bench_test.go's microbenchmarks time — so the
// timing report can pin the per-step cost and its allocation count
// (the allocation-budget tests hold machine_step at exactly zero).
func MeasureHotPaths() []HotPathBench {
	full := benchMachine()
	step := measureLoop("machine_step", 2_000, 50_000, func() { full.Step(1e-3) })

	// The full step under every paper table: serving workers whose cost
	// caches and cost structs the analytic machine_step row never
	// exercises.
	coloRow := measureLoop("colo_step", 2_000, 50_000, coloStepLoop())

	// The replay row uses a burst-free workload so StepN actually hits
	// the quiescent path (bursty profiles refuse to quiesce).
	plat := platform.GenA()
	ff := machine.New(plat)
	if _, err := ff.AddTask(workload.New(workload.Compute(), 7), machine.Placement{
		CoreLo: 0, CoreHi: plat.Cores - 1, SMTSlot: 0,
	}); err != nil {
		panic(err)
	}
	replay := measureLoop("machine_stepn_replay", 200, 5_000, func() { ff.StepN(1e-3, 10) })
	replay.NsPerOp /= 10
	replay.AllocsPerOp /= 10

	// The machine a fleet actually steps: an idle serving node built as
	// the cluster builds one, replaying its starved workers' step.
	node := measureLoop("fleet_node_replay", 200, 5_000, cluster.NodeReplayBenchLoop(NewExclusive(), 10))
	node.NsPerOp /= 10
	node.AllocsPerOp /= 10

	// The per-retry cost of fleet failover: schedule with jittered
	// backoff, sample queue state, dispatch through the balancer.
	failover := measureLoop("fleet_failover", 2_000, 50_000, cluster.FailoverBenchLoop())

	// The per-token cost of the causal tracer's hottest hook: a live
	// sampled record absorbing decode-token events. This is the marginal
	// overhead every traced decode iteration pays (the alloc-budget
	// tests hold it at zero allocations at steady state).
	rt := reqtrace.New(reqtrace.Config{})
	tid := reqtrace.MakeTraceID(0, 1)
	rt.Submitted(tid, 0, 0)
	rt.PrefillStart(tid, 0.1, 0)
	rt.FirstToken(tid, 0.2, true, 0, 0, 0)
	token := measureLoop("reqtrace_token", 2_000, 50_000, func() {
		rt.Token(tid, 0.3, 0.1, true, 0.05, 0, 0)
	})

	return []HotPathBench{step, coloRow, replay, node, failover, token}
}
