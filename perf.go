package aum

// In-process hot-path measurement: lets cmd/aumbench record the
// simulator's per-step cost and allocation count in BENCH_results.json
// without depending on `go test -bench`.

import (
	"runtime"
	"time"

	"aum/internal/cluster"
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/workload"
)

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

// replayMachine builds the machine the replay rows step: one
// burst-free workload over every core, so every tick replays (a bursty
// profile runs two full steps per burst quantum).
func replayMachine() *machine.Machine {
	plat := platform.GenA()
	m := machine.New(plat)
	if _, err := m.AddTask(workload.New(workload.Compute(), 7), machine.Placement{
		CoreLo: 0, CoreHi: plat.Cores - 1, SMTSlot: 0,
	}); err != nil {
		panic(err)
	}
	return m
}

// coloStepLoop returns a closure that takes one full 1 ms step of the
// machine the paper tables step: GenA serving llama2-7b (servingNode)
// with its prefill and decode workers placed as NewExclusive places
// them, a bursty SPECjbb co-runner on every core's SMT sibling
// (NewSMTSharing's layout), and both workers mid-iteration on queued
// requests. The loop calls Step, never StepN, so every step is a full
// one, as at a burst-quantum boundary of the co-runner or a worker's
// job pull. The decode batch is full with requests that never finish,
// and the prefill queue holds about 20 simulated minutes of prompts
// (one takes ~0.3 s).
func coloStepLoop() func() {
	jbb := workload.SPECjbb()
	n := servingNode(NewSMTSharing(), &jbb)
	m, eng := n.M, n.Engine
	const queued = 4096
	for i := 0; i < queued; i++ {
		if err := eng.Submit(&serve.Request{ID: i + 1, PromptLen: 512, OutputLen: 1 << 30}); err != nil {
			panic(err)
		}
	}
	for eng.DecodeBatch() < serve.MaxBatch {
		m.Step()
	}
	return m.Step
}

// nodeReplayLoop returns a closure that advances an idle serving node,
// built as a fleet builds one, k machine steps through StepN: the
// per-node work a sparse fleet repeats at every barrier.
func nodeReplayLoop(mgr colo.Manager, k int) func() {
	m := servingNode(mgr, nil).M
	return func() { m.StepN(k) }
}

// servingNode builds GenA serving llama2-7b on the chatbot scenario,
// with no telemetry, through colo.NewNode as colo.Run and every fleet
// machine are built; be, when set, co-runs under seed 7.
func servingNode(mgr colo.Manager, be *workload.Profile) *colo.Node {
	n, err := colo.NewNode(colo.Config{Plat: platform.GenA(), Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
		BE: be, Manager: mgr}, 7, 0, nil)
	if err != nil {
		panic(err)
	}
	return n
}

// MeasureHotPaths benchmarks the simulator hot paths in-process —
// the same loops bench_test.go's microbenchmarks time — so the
// timing report can pin the per-step cost and its allocation count
// (the allocation-budget tests hold machine_step at exactly zero).
// Every machine row is per tick: one machine.DT step of one machine.
func MeasureHotPaths() []HotPathBench {
	// One full Step of the analytic three-task co-location.
	full := benchMachine()
	step := measureLoop("machine_step", 2_000, 50_000, full.Step)

	// One full Step of the machine under every paper table: serving
	// workers whose cost caches and cost structs the analytic
	// machine_step row never exercises.
	coloRow := measureLoop("colo_step", 2_000, 50_000, coloStepLoop())

	// One replayed tick, timed as StepN(10) divided by 10.
	ff := replayMachine()
	replay := measureLoop("machine_stepn_replay", 200, 5_000, func() { ff.StepN(10) })
	replay.NsPerOp /= 10
	replay.AllocsPerOp /= 10

	// The same replayed tick on an observed machine: a replayed tick
	// publishes only its step counts, once per StepN call.
	observed := replayMachine()
	observed.SetTelemetry(telemetry.NewRegistry())
	replayObs := measureLoop("machine_stepn_replay_observed", 200, 5_000, func() { observed.StepN(10) })
	replayObs.NsPerOp /= 10
	replayObs.AllocsPerOp /= 10

	// One replayed tick of the machine a fleet actually steps: an idle
	// serving node built as a fleet builds one, replaying its starved
	// workers' step (StepN(10) divided by 10).
	node := measureLoop("fleet_node_replay", 200, 5_000, nodeReplayLoop(NewExclusive(), 10))
	node.NsPerOp /= 10
	node.AllocsPerOp /= 10

	// One executed barrier of an idle 64-node fleet: the runner.Shard
	// fan-out over one-node shards and each node's replayed interval.
	barrier := measureLoop("fleet_barrier", 20, 500, cluster.FleetBarrierBenchLoop(NewExclusive()))

	// The per-retry cost of fleet failover: schedule with jittered
	// backoff, sample queue state, dispatch through the balancer.
	failover := measureLoop("fleet_failover", 2_000, 50_000, cluster.FailoverBenchLoop())

	// The per-token cost of the causal tracer's hottest hook: a live
	// record absorbing decode-token events. This is the marginal
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

	return []HotPathBench{step, coloRow, replay, replayObs, node, barrier, failover, token}
}
