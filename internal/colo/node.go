package colo

import (
	"fmt"

	"aum/internal/machine"
	"aum/internal/rdt"
	"aum/internal/serve"
	"aum/internal/workload"
)

// Node is one serving machine as the paper runs it (§VII): the LLM
// serving engine and an optional co-runner on one machine, placed and
// controlled by a resource manager. Run steps one node to its horizon;
// a fleet (package cluster) steps one per machine between barriers.
type Node struct {
	Env
	mgr Manager
	// Name names the node in its errors; NewNode sets the manager's.
	Name string

	// Inbox holds arrivals routed to the node, sorted by Arrival.
	// StepTo submits each at the end of the tick it falls in and
	// empties the inbox on return.
	Inbox []*serve.Request

	interval int64 // manager cadence in ticks (0 = no ticks)
	nextTick int64 // tick of the next manager decision
	warm     int64 // tick that opens the measurement window

	// Base holds the counters at the opening of the measurement window
	// once Measured is set; results are deltas from it.
	Base     Snapshot
	Measured bool
}

// Snapshot is what a node's results are measured from.
type Snapshot struct {
	Stats               serve.Stats
	EnergyJ             float64
	Prefill, Decode, BE machine.TaskStats
}

// NewNode builds the node cfg describes and lets cfg.Manager place its
// tasks. cfg.Telemetry is the node's telemetry scope and cfg.ReqTrace
// its tracer, which sees the node as trace node traceNode; beSeed
// seeds the co-runner, and handoff, when set, exports every prefilled
// request (a disaggregated prefill machine). cfg.WarmupS opens the
// measurement window. cfg is used as given: no defaults are filled in.
func NewNode(cfg Config, beSeed uint64, traceNode int, handoff func(r *serve.Request, now float64)) (*Node, error) {
	m := machine.New(cfg.Plat)
	m.SetTelemetry(cfg.Telemetry)
	eng := serve.NewEngine(serve.Config{Model: cfg.Model, SLO: cfg.Scen.SLO, Admission: cfg.Admission,
		Telemetry: cfg.Telemetry, Trace: cfg.TraceSink, ReqTrace: cfg.ReqTrace, Node: traceNode, Handoff: handoff})
	n := &Node{
		Env:      Env{Plat: cfg.Plat, M: m, RDT: rdt.New(m), Engine: eng, Scen: cfg.Scen},
		mgr:      cfg.Manager,
		Name:     cfg.Manager.Name(),
		interval: machine.TickOf(cfg.Manager.Interval()),
		warm:     machine.TickOf(cfg.WarmupS),
	}
	n.nextTick = n.interval
	n.RDT.SetTelemetry(cfg.Telemetry)
	if cfg.BE != nil {
		n.BEApp = workload.New(*cfg.BE, beSeed)
	}
	if err := cfg.Manager.Setup(&n.Env); err != nil {
		return nil, fmt.Errorf("colo: %s setup: %w", n.Name, err)
	}
	if n.PrefillID == 0 || n.DecodeID == 0 {
		return nil, fmt.Errorf("colo: %s setup did not place the LLM workers", n.Name)
	}
	return n, nil
}

// StepTo advances the node to tick end (DESIGN.md §9). At every tick t
// at which something falls due it submits the inbox arrivals due by
// the tick's end, runs hook — the caller's own events, which returns
// the next tick at which one of them falls due — fires the manager at
// its cadence and opens the measurement window at the warmup tick, in
// that order. Between due ticks the machine steps, replaying where it
// can, so any split of [Tick, end) gives the same node.
func (n *Node) StepTo(end int64, hook func(t int64) (next int64, err error)) error {
	ri := 0
	err := n.M.StepTo(end, func(t int64) (int64, error) {
		for ; ri < len(n.Inbox) && n.Inbox[ri].Arrival <= machine.Time(t+1); ri++ {
			if err := n.Engine.Submit(n.Inbox[ri]); err != nil {
				return 0, err
			}
		}
		next, err := hook(t)
		if err != nil {
			return 0, err
		}
		if n.interval > 0 && t >= n.nextTick {
			if err := n.mgr.Tick(&n.Env, machine.Time(t)); err != nil {
				return 0, fmt.Errorf("colo: %s tick: %w", n.Name, err)
			}
			n.nextTick += n.interval
		}
		if t >= n.warm {
			n.Snapshot()
		} else {
			next = min(next, n.warm)
		}
		// An arrival lands at the end of the tick it falls in, so it is
		// due one tick before its own.
		if ri < len(n.Inbox) {
			next = min(next, machine.TickOf(n.Inbox[ri].Arrival)-1)
		}
		if n.interval > 0 {
			next = min(next, n.nextTick)
		}
		return next, nil
	})
	n.Inbox = n.Inbox[:0]
	return err
}

// Snapshot opens the node's measurement window; only the first call
// counts.
func (n *Node) Snapshot() {
	if n.Measured {
		return
	}
	n.Measured = true
	n.Base = Snapshot{Stats: n.Engine.Stats().Clone(), EnergyJ: n.M.EnergyJ()}
	n.Base.Prefill, _ = n.M.Stats(n.PrefillID)
	n.Base.Decode, _ = n.M.Stats(n.DecodeID)
	n.Base.BE, _ = n.M.Stats(n.BEID) // zero with no co-runner (BEID 0)
}

// Measure returns the node's results over its measurement window,
// elapsed seconds long, opening the window first if warmup was never
// crossed: rates, SLO guarantees, means and per-task stats, each a
// delta from the snapshot. The caller names and prices the run.
func (n *Node) Measure(elapsed float64) Result {
	n.Snapshot()
	b, st := &n.Base, n.Engine.Stats()
	prefill, _ := n.M.Stats(n.PrefillID)
	decode, _ := n.M.Stats(n.DecodeID)
	be, _ := n.M.Stats(n.BEID)
	be = be.Sub(b.BE)
	reqs := float64(st.PrefillRequests - b.Stats.PrefillRequests)
	toks := st.DecodeTokens - b.Stats.DecodeTokens
	r := Result{
		PerfH:      (st.GuaranteedPrefillTokens - b.Stats.GuaranteedPrefillTokens) / elapsed,
		PerfL:      (st.TPOTMet - b.Stats.TPOTMet) / elapsed,
		RawPerfH:   (st.PrefillTokens - b.Stats.PrefillTokens) / elapsed,
		RawPerfL:   toks / elapsed,
		RequestsPS: reqs / elapsed,
		PerfN:      be.Work / elapsed,
		Watts:      (n.M.EnergyJ() - b.EnergyJ) / elapsed,

		TTFTGuarantee:       guaranteeDelta(float64(st.TTFTMet-b.Stats.TTFTMet), reqs),
		TTFTGuaranteeScaled: guaranteeDelta(float64(st.TTFTMetScaled-b.Stats.TTFTMetScaled), reqs),
		TPOTGuarantee:       guaranteeDelta(st.TPOTMet-b.Stats.TPOTMet, toks),
		MeanTTFT:            meanDelta(st.TTFTSum-b.Stats.TTFTSum, reqs),
		MeanTPOT:            meanDelta(st.TPOTSum-b.Stats.TPOTSum, toks),
		GoodTokensPS:        (st.GuaranteedTokens - b.Stats.GuaranteedTokens) / elapsed,

		PrefillStats: prefill.Sub(b.Prefill),
		DecodeStats:  decode.Sub(b.Decode),
		BEStats:      be,

		Rejected:       st.Rejected - b.Stats.Rejected,
		BacklogDropped: st.BacklogDropped - b.Stats.BacklogDropped,
	}
	r.MeanGHzPrefill, r.MeanGHzDecode, r.MeanGHzBE = r.PrefillStats.MeanGHz(), r.DecodeStats.MeanGHz(), be.MeanGHz()
	return r
}
