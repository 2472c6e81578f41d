package aum

// Allocation budgets for the simulator hot loops. These are pinned
// ceilings, not aspirations: a change that pushes a hot path over its
// budget fails here before it shows up as a wall-clock regression in
// CI's benchstat gate. Budgets are per-operation at steady state —
// every test warms the path first so one-time scratch growth is
// excluded, which is exactly how the simulation loop behaves after its
// first few ticks.

import (
	"reflect"
	"testing"
	"unsafe"

	"aum/internal/cluster"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/membw"
	"aum/internal/platform"
	"aum/internal/power"
	"aum/internal/reqtrace"
	"aum/internal/roofline"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/workload"
)

// allocBudget asserts fn allocates at most max times per run at steady
// state. warmup runs first, outside the measurement.
func allocBudget(t *testing.T, name string, max float64, warmup int, fn func()) {
	t.Helper()
	for i := 0; i < warmup; i++ {
		fn()
	}
	got := testing.AllocsPerRun(200, fn)
	if got > max {
		t.Errorf("%s: %.1f allocs/op, budget %.0f", name, got, max)
	}
}

// TestCopyFreeEnvLayout pins the layout that keeps the full machine
// step copy-free. A CPU profile of the paper-tables benchmark once
// showed 21% of CPU in runtime.duffcopy, mostly copying a 288-byte
// platform.Platform embedded by value in every machine.Env passed to
// Demand, Step and the LLM cost model. Env now shares the platform by
// pointer; this fails if either Env embeds it again or machine.Env
// outgrows 64 bytes.
func TestCopyFreeEnvLayout(t *testing.T) {
	for name, typ := range map[string]reflect.Type{
		"machine.Env":  reflect.TypeOf(machine.Env{}),
		"roofline.Env": reflect.TypeOf(roofline.Env{}),
	} {
		f, ok := typ.FieldByName("Plat")
		if !ok || f.Type.Kind() != reflect.Pointer {
			t.Errorf("%s.Plat must be a *platform.Platform, got %v", name, f.Type)
		}
	}
	if n := unsafe.Sizeof(machine.Env{}); n > 64 {
		t.Errorf("machine.Env is %d bytes, budget 64", n)
	}
}

// TestAllocBudgetMachineStep pins the full simulator step — three
// co-located analytic workloads, the inner loop of every experiment —
// at exactly zero allocations per step.
func TestAllocBudgetMachineStep(t *testing.T) {
	plat := platform.GenA()
	m := machine.New(plat)
	for i, p := range []workload.Profile{workload.SPECjbb(), workload.OLAP(), workload.Compute()} {
		lo := i * 32
		if _, err := m.AddTask(workload.New(p, uint64(i+1)), machine.Placement{CoreLo: lo, CoreHi: lo + 31, SMTSlot: 0, COS: i}); err != nil {
			t.Fatal(err)
		}
	}
	allocBudget(t, "machine.Step", 0, 1000, m.Step)
}

// servingMachine is a GenA machine serving llama2-7b with the prefill
// and decode workers on its two halves and no co-runner.
func servingMachine(t *testing.T) (*machine.Machine, *serve.Engine) {
	t.Helper()
	plat := platform.GenA()
	m := machine.New(plat)
	eng := serve.NewEngine(serve.Config{Model: llm.Llama2_7B(), SLO: trace.Chatbot().SLO})
	half := plat.Cores / 2
	if _, err := m.AddTask(eng.PrefillWorker(), machine.Placement{CoreLo: 0, CoreHi: half - 1, SMTSlot: 0, COS: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddTask(eng.DecodeWorker(), machine.Placement{CoreLo: half, CoreHi: plat.Cores - 1, SMTSlot: 0, COS: 1}); err != nil {
		t.Fatal(err)
	}
	return m, eng
}

// TestAllocBudgetServeStep pins a serving machine (prefill + decode
// workers, no arrivals) at zero allocations per step: the starved
// worker path and the cost caches must not allocate.
func TestAllocBudgetServeStep(t *testing.T) {
	m, _ := servingMachine(t)
	allocBudget(t, "serve machine.Step", 0, 1000, m.Step)
}

// iterationOf returns an op that steps m until w completes one more
// iteration. TestAllocBudgetColoStep cannot see a per-iteration
// allocation: an iteration spans many 1 ms steps, and AllocsPerRun
// rounds the per-step mean down to zero.
func iterationOf(m *machine.Machine, w *serve.Worker) func() {
	return func() {
		for n := w.Completed(); w.Completed() == n; {
			m.Step()
		}
	}
}

// TestAllocBudgetDecodeIteration pins one complete decode iteration —
// every machine step from one iteration boundary of a full batch to
// the next — at zero allocations. The batch is full of requests that
// never finish and the prefill queue is empty, so each op is exactly
// one decode iteration and nothing else.
func TestAllocBudgetDecodeIteration(t *testing.T) {
	m, eng := servingMachine(t)
	for i := 0; i < serve.MaxBatch; i++ {
		if err := eng.Submit(&serve.Request{ID: i + 1, PromptLen: 512, OutputLen: 1 << 30}); err != nil {
			t.Fatal(err)
		}
	}
	for eng.DecodeBatch() < serve.MaxBatch {
		m.Step()
	}
	allocBudget(t, "serve decode iteration", 0, 10, iterationOf(m, eng.DecodeWorker()))
}

// TestAllocBudgetPrefillIteration pins one complete prefill pass —
// every machine step from one prefill boundary to the next — at zero
// allocations: the engine re-forms its one prefill job in place. The
// queued requests retire at their first token and the queue outlasts
// the measurement, so each op is exactly one prefill and nothing else.
func TestAllocBudgetPrefillIteration(t *testing.T) {
	m, eng := servingMachine(t)
	for i := 0; i < 512; i++ {
		if err := eng.Submit(&serve.Request{ID: i + 1, PromptLen: 512, OutputLen: 1}); err != nil {
			t.Fatal(err)
		}
	}
	allocBudget(t, "serve prefill iteration", 0, 10, iterationOf(m, eng.PrefillWorker()))
	if eng.QueueLen() == 0 {
		t.Fatal("prefill queue ran dry during the measurement")
	}
}

// TestAllocBudgetColoStep pins the full step under every paper table —
// serving workers mid-iteration on queued requests with a bursty
// co-runner on their SMT siblings (coloStepLoop in perf.go) — at zero
// allocations per step.
func TestAllocBudgetColoStep(t *testing.T) {
	allocBudget(t, "colo machine.Step", 0, 1000, coloStepLoop())
}

// TestAllocBudgetStepN pins the fast-forward replay path at zero
// allocations per replayed step.
func TestAllocBudgetStepN(t *testing.T) {
	m := replayMachine()
	allocBudget(t, "machine.StepN", 0, 100, func() { m.StepN(8) })
}

// TestAllocBudgetStepNObserved pins the replay path of an observed
// machine at zero allocations: a replayed tick only adds to the step
// counters.
func TestAllocBudgetStepNObserved(t *testing.T) {
	m := replayMachine()
	m.SetTelemetry(telemetry.NewRegistry())
	allocBudget(t, "observed machine.StepN", 0, 100, func() { m.StepN(8) })
}

// TestAllocBudgetFleetBarrier pins one executed barrier of an idle
// 64-node fleet (cluster.FleetBarrierBenchLoop) at four allocations:
// the caller's shard closure, runner.Shard's job, and its cancellable
// context with the cancel func; nothing per shard or per node.
// AllocsPerRun measures at GOMAXPROCS 1, where Shard recruits no helper.
func TestAllocBudgetFleetBarrier(t *testing.T) {
	allocBudget(t, "fleet barrier", 4, 20, cluster.FleetBarrierBenchLoop(NewExclusive()))
}

// TestAllocBudgetFleetNodeReplay pins the machine a fleet steps — an
// idle serving node built as the cluster builds one — at zero
// allocations per replayed step.
func TestAllocBudgetFleetNodeReplay(t *testing.T) {
	allocBudget(t, "fleet node StepN", 0, 100, nodeReplayLoop(NewExclusive(), 8))
}

// TestAllocBudgetGovernorSolve pins the TDP/license solve at zero: its
// result slice aliases per-governor scratch by design.
func TestAllocBudgetGovernorSolve(t *testing.T) {
	gov := power.NewGovernor(platform.GenA())
	loads := []power.RegionLoad{
		{Cores: 53, Class: power.AMXHeavy, Util: 0.9},
		{Cores: 29, Class: power.AVXHeavy, Util: 0.6},
		{Cores: 14, Class: power.Scalar, Util: 0.9},
	}
	allocBudget(t, "power.Solve", 0, 10, func() { benchSolSink = gov.Solve(loads, 0) })
}

// TestAllocBudgetCostIteration pins the LLM cost model at zero.
func TestAllocBudgetCostIteration(t *testing.T) {
	plat := platform.GenA()
	model := llm.Llama2_7B()
	plan := model.PlanDecode(16, 600)
	env := machine.Env{Plat: &plat, Cores: 29, GHz: 3.1, ComputeShare: 1,
		LLCMB: plat.TotalLLCMB(), L2MB: 58, BWGBs: plat.MemBWGBs * 0.8}
	allocBudget(t, "llm.CostIteration", 0, 10, func() { benchCostSink = llm.CostIteration(plan, env) })
}

// TestAllocBudgetReqTraceDisabled pins the tracing-disabled path at
// exactly zero: every hook on a nil tracer must cost nothing, because
// that is what every untraced run pays at every hook site.
func TestAllocBudgetReqTraceDisabled(t *testing.T) {
	var tr *reqtrace.Tracer
	tid := reqtrace.MakeTraceID(0, 1)
	allocBudget(t, "reqtrace disabled hooks", 0, 10, func() {
		tr.Submitted(tid, 0, 0)
		tr.PrefillStart(tid, 0.1, 0)
		tr.FirstToken(tid, 0.3, true, 0, 0, 0)
		tr.Token(tid, 0.4, 0.1, true, 0.05, 0, 0)
		tr.Retire(tid, 0.4, 0)
	})
}

// TestAllocBudgetReqTraceSampled pins the traced hot path: once a
// record is live and the burn window exists, the per-token hook is
// counter updates only — zero allocations at steady state.
func TestAllocBudgetReqTraceSampled(t *testing.T) {
	tr := reqtrace.New(reqtrace.Config{})
	tid := reqtrace.MakeTraceID(0, 1)
	tr.Submitted(tid, 0, 0)
	tr.PrefillStart(tid, 0.1, 0)
	tr.FirstToken(tid, 0.2, true, 0, 0, 0)
	allocBudget(t, "reqtrace.Token sampled", 0, 1000, func() {
		tr.Token(tid, 0.3, 0.1, true, 0.05, 0, 0)
	})
}

// TestAllocBudgetFailover pins the fault-tolerance hot path — retry
// scheduling, jitter derivation, due-queue ordering, and failover
// dispatch — at exactly zero allocations per barrier at steady state.
func TestAllocBudgetFailover(t *testing.T) {
	allocBudget(t, "fleet failover", 0, 200, cluster.FailoverBenchLoop())
}

// TestAllocBudgetMaxMin pins the bandwidth arbitration at its
// documented cost: the grant slice it returns (amortized growth
// included).
func TestAllocBudgetMaxMin(t *testing.T) {
	dem := []float64{300, 40, 12, 5}
	wts := []float64{29, 53, 14, 4}
	caps := []float64{233, 233, 120, 40}
	allocBudget(t, "membw.MaxMin", 3, 10, func() { benchGrantSink = membw.MaxMin(233.8, dem, wts, caps) })
}
