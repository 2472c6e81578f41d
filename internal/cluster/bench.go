package cluster

import (
	"context"

	"aum/internal/chaos"
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/platform"
	"aum/internal/runner"
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
	return func() { m.StepN(k) }
}

// FleetBarrierBenchLoop returns a closure that steps an idle fleet of
// 64 nodes through its next barrier: one runner.Shard over 64 one-node
// shards, each node replaying its starved workers' step for one barrier
// interval, as an executed barrier of a near-idle fleet does. The nodes
// are built by newSession as a fleet builds them, without telemetry.
// MeasureHotPaths (perf.go) times it for the hot_paths table.
func FleetBarrierBenchLoop(mgr colo.Manager) func() {
	specs := make([]MachineSpec, 64)
	for i := range specs {
		specs[i] = MachineSpec{Plat: platform.GenA(), Mgr: mgr}
	}
	cfg, err := Config{Machines: specs}.withDefaults()
	if err != nil {
		panic(err)
	}
	s, err := newSession(cfg)
	if err != nil {
		panic(err)
	}
	return func() {
		if err := runner.Shard(s.ctx, len(s.nodes), 1, s.ropt,
			func(_ context.Context, lo, hi int) error {
				for _, n := range s.nodes[lo:hi] {
					if err := s.stepEpoch(n, s.bi); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
			panic(err)
		}
		s.bi++
	}
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
		Faults:   &chaos.FleetSchedule{},
		Seed:     1,
	}
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
