package cluster

import (
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/platform"
	"aum/internal/serve"
)

// NodeReplayBenchLoop returns a closure that advances one idle fleet
// node k machine steps through StepN — the per-node work a sparse
// fleet repeats at every barrier. The node is built by newSession
// exactly as a fleet builds one: a GenA machine set up by mgr, with
// idle prefill and decode workers and no per-machine telemetry.
// MeasureHotPaths (perf.go) times it for the hot_paths table.
func NodeReplayBenchLoop(mgr colo.Manager, k int) func() {
	cfg, err := Config{Machines: []MachineSpec{{Plat: platform.GenA(), Mgr: mgr}}}.withDefaults()
	if err != nil {
		panic(err)
	}
	s, err := newSession(cfg)
	if err != nil {
		panic(err)
	}
	m := s.nodes[0].env.M
	return func() { m.StepN(cfg.DT, k) }
}

// FailoverBenchLoop returns a closure that exercises the fleet
// failover hot path — retry scheduling with capped jittered backoff,
// the barrier queue-state sample, and due-retry dispatch through the
// balancer — on a synthetic two-node fleet. MeasureHotPaths (perf.go)
// times it for the hot_paths table of BENCH_results.json; the loop is
// allocation-light by construction so regressions there are visible.
func FailoverBenchLoop() func() {
	cfg := Config{
		Machines: make([]MachineSpec, 2),
		Faults:   &FaultConfig{},
		Seed:     1,
	}
	f, err := cfg.Faults.withDefaults()
	if err != nil {
		panic(err)
	}
	cfg.Faults = &f
	fe, err := newFaultEngine(cfg)
	if err != nil {
		panic(err)
	}
	model := llm.Llama2_7B()
	nodes := make([]*node, 2)
	for i := range nodes {
		nodes[i] = &node{
			name:  "bench",
			state: stateActive,
			env:   &colo.Env{Engine: serve.NewEngine(serve.Config{Model: model})},
		}
	}
	bal := newBalancer(RoundRobin, len(nodes))
	req := &serve.Request{ID: 1, PromptLen: 512, OutputLen: 128}
	return func() {
		req.Done = false
		fe.attempts[req] = 0
		fe.scheduleRetry(0, req, 0)
		bal.sample(nodes)
		fe.dispatchDue(1, nodes, bal)
		nodes[0].inbox = nodes[0].inbox[:0]
		nodes[1].inbox = nodes[1].inbox[:0]
	}
}
