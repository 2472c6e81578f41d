package cluster

import (
	"aum/internal/chaos"
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/platform"
	"aum/internal/serve"
)

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
		if err := s.stepNodes(s.bi, 1); err != nil {
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
			state: stateActive,
			Node:  &colo.Node{Name: "bench", Env: colo.Env{Engine: serve.NewEngine(serve.Config{Model: model})}},
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
		nodes[0].Inbox = nodes[0].Inbox[:0]
		nodes[1].Inbox = nodes[1].Inbox[:0]
	}
}
