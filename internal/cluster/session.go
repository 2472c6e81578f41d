// Fleet session: the barrier loop of run(), factored into an object
// that can be driven one barrier at a time. The offline path (run)
// executes exactly the same statements in the same order as before the
// factoring — a session is a cursor over the loop, not a new engine —
// so fleet results stay byte-identical at every worker width with
// fast-forward on or off. The open-ended path (Session) exists for the
// serving gateway: it steps the same loop against a live arrival
// source with no horizon bound, calling Finish only when the daemon
// shuts down.
package cluster

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aum/internal/colo"
	"aum/internal/machine"
	"aum/internal/metrics"
	"aum/internal/perfmon"
	"aum/internal/rdt"
	"aum/internal/reqtrace"
	"aum/internal/rng"
	"aum/internal/runner"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/workload"
)

// session holds everything run()'s barrier loop used to keep in
// locals. One barrier of simulated time advances per step() call;
// finishAt() runs the accounting tail over [WarmupS, endS].
type session struct {
	cfg     Config
	classes []trace.Scenario
	classOf []int
	gamma   float64
	rt      *reqtrace.Tracer
	nodes   []*node
	gens    []trace.Source
	setRate func(aggregate float64)

	gActive, gPowered, gRate, gQueue, gUtil, gAvail *telemetry.Gauge
	cRouted, cHandoffs, cScale                      *telemetry.Counter

	bal    *balancer
	link   *kvLink
	scaler *autoscaler
	fe     *faultEngine
	events []ScaleEvent

	ctx      context.Context
	ropt     runner.Options
	steps    int
	rate     float64
	qpsIdx   int
	shed     int
	routable []int
	bi       int // barriers completed so far

	ev   eventState // event-queue core: barrier elision and catch-up
	arch *archState // archetype memoization (Config.Archetypes)
}

// newSession builds the fleet from an already-validated Config.
func newSession(cfg Config) (*session, error) {
	classes, classOf := scenarioClasses(cfg)
	gamma := 0.0
	if cfg.BE != nil {
		gamma = cfg.BE.RevenuePrice
	}

	// Request tracing: honor an explicit tracer, or — when forced for a
	// neutrality check — construct a private one so the hooks execute
	// without any caller opting in. The private tracer is never exported,
	// so output stays byte-identical (reqtrace's determinism contract).
	rt := cfg.ReqTrace
	if rt == nil && reqtrace.Forced() {
		rt = reqtrace.New(reqtrace.Config{})
	}

	nodes := make([]*node, len(cfg.Machines))
	for i, spec := range cfg.Machines {
		scen := classes[classOf[i]]
		m := machine.New(spec.Plat)
		// Archetype mode leaves machines bare: a per-machine telemetry
		// scope would pin every machine to the exact per-tick path
		// (machine.CoarseReady refuses observed machines), defeating the
		// memoization — and at 100k machines the scopes alone dominate
		// memory.
		var scope *telemetry.Registry
		if !cfg.Archetypes && cfg.Telemetry != nil {
			scope = cfg.Telemetry.Child(fmt.Sprintf("m%02d", i))
		}
		m.SetTelemetry(scope)
		n := &node{name: fmt.Sprintf("%s-%d", spec.Plat.Name, i), spec: spec, class: classOf[i]}
		engCfg := serve.Config{Model: cfg.Model, SLO: scen.SLO, Telemetry: scope,
			ReqTrace: rt, Node: i, Admission: cfg.Admission}
		if spec.Role == RolePrefill {
			engCfg.Handoff = func(r *serve.Request, now float64) {
				n.exports = append(n.exports, export{req: r, readyAt: now})
			}
		}
		env := &colo.Env{
			Plat: spec.Plat, M: m, RDT: rdt.New(m),
			Engine: serve.NewEngine(engCfg), Scen: scen,
		}
		env.RDT.SetTelemetry(scope)
		if cfg.BE != nil {
			env.BEApp = workload.New(*cfg.BE, rng.Derive(cfg.Seed, uint64(i)).Uint64())
		}
		if err := spec.Mgr.Setup(env); err != nil {
			return nil, fmt.Errorf("cluster: %s setup: %w", n.name, err)
		}
		if env.PrefillID == 0 || env.DecodeID == 0 {
			return nil, fmt.Errorf("cluster: %s manager placed no LLM", n.name)
		}
		n.env = env
		n.capacity = requestCapacity(spec.Plat, cfg.Model, scen)
		n.nextTick = spec.Mgr.Interval()
		n.state = stateActive
		if spec.Standby {
			n.state = stateStandby
		}
		n.gState = scope.Gauge("aum_fleet_node_state")
		nodes[i] = n
	}

	// One generator per scenario class, each on its own derived stream;
	// a rate change rescales every class by its default-rate share. A
	// live source (gateway mode) replaces the single class's generator.
	gens := make([]trace.Source, len(classes))
	shares := make([]float64, len(classes))
	var shareSum float64
	for k := range classes {
		gens[k] = trace.NewGenerator(classes[k], rng.Derive(cfg.Seed, 1000+uint64(k)).Uint64())
		shares[k] = classes[k].RatePerS
		shareSum += classes[k].RatePerS
	}
	if cfg.Source != nil {
		gens[0] = cfg.Source
	}
	setRate := func(aggregate float64) {
		for k, g := range gens {
			g.SetRate(aggregate * shares[k] / shareSum)
		}
	}

	s := &session{
		cfg: cfg, classes: classes, classOf: classOf, gamma: gamma,
		rt: rt, nodes: nodes, gens: gens, setRate: setRate,

		gActive:   cfg.Telemetry.Gauge("aum_fleet_active_machines"),
		gPowered:  cfg.Telemetry.Gauge("aum_fleet_powered_machines"),
		gRate:     cfg.Telemetry.Gauge("aum_fleet_offered_rate_per_s"),
		gQueue:    cfg.Telemetry.Gauge("aum_fleet_queue_len"),
		gUtil:     cfg.Telemetry.Gauge("aum_fleet_utilization"),
		gAvail:    cfg.Telemetry.Gauge("aum_fleet_availability"),
		cRouted:   cfg.Telemetry.Counter("aum_fleet_requests_routed_total"),
		cHandoffs: cfg.Telemetry.Counter("aum_fleet_handoffs_total"),
		cScale:    cfg.Telemetry.Counter("aum_fleet_scale_events_total"),

		bal:  newBalancer(cfg.Policy, len(nodes)),
		link: newKVLink(cfg.Link, len(nodes)),

		ctx:   context.Background(),
		ropt:  runner.Options{Workers: cfg.Workers, Seed: cfg.Seed},
		steps: int(math.Round(cfg.BarrierS / cfg.DT)),
		rate:  cfg.RatePerS,
		ev:    eventState{cElided: cfg.Telemetry.Counter("aum_cluster_barriers_elided_total")},
	}
	if cfg.Autoscale != nil {
		s.scaler = &autoscaler{cfg: *cfg.Autoscale}
	}
	if cfg.Faults != nil {
		var err error
		if s.fe, err = newFaultEngine(cfg); err != nil {
			return nil, err
		}
		s.fe.rt = rt
	}
	if cfg.Archetypes {
		s.arch = newArchState(s)
	} else {
		s.refreshEventScan()
	}
	return s, nil
}

// advance steps one barrier: archetype memoization when the config
// asks for it, otherwise the exact event-queue core.
func (s *session) advance() error {
	if s.arch != nil {
		return s.stepArch()
	}
	return s.stepEvent()
}

// now is the simulated time of the next barrier's start.
func (s *session) now() float64 { return float64(s.bi) * s.cfg.BarrierS }

// step executes one barrier interval across the whole fleet — the
// event core's executed-barrier body — ending with the single-threaded
// merge and telemetry publish.
func (s *session) step() error {
	cfg, nodes, rt, fe := s.cfg, s.nodes, s.rt, s.fe
	start := float64(s.bi) * cfg.BarrierS
	end := float64(s.bi+1) * cfg.BarrierS
	if s.scaler != nil {
		// By construction the autoscaler's next event is the next
		// barrier, so this min never shortens the epoch; it keeps
		// the event-source contract (DESIGN.md §9) explicit.
		end = math.Min(end, s.scaler.nextEventAt(end))
	}
	if fe != nil {
		// Same contract: faults quantize to barriers, so the fault
		// engine's next event is the next barrier too.
		end = math.Min(end, fe.nextEventAt(end))
	}

	for s.qpsIdx < len(cfg.QPS) && cfg.QPS[s.qpsIdx].At <= start+1e-9 {
		s.rate = cfg.QPS[s.qpsIdx].RatePerS
		s.qpsIdx++
	}
	s.setRate(s.rate)

	// Fleet faults strike before any routing or scaling decision, so
	// the rest of the barrier already sees the post-fault health
	// states — a crashed node takes no arrivals this barrier.
	if fe != nil {
		fe.apply(start, cfg, nodes, s.link)
	}

	// Lifecycle transitions, then this barrier's scaling decision.
	for _, n := range nodes {
		if n.state == stateWarming && start >= n.activeAt-1e-9 {
			n.state = stateActive
			s.events = append(s.events, ScaleEvent{At: start, Machine: n.name, Action: "active"})
		}
	}
	if s.scaler != nil {
		before := len(s.events)
		s.scaler.observe(start, s.rate, nodes, &s.events)
		s.cScale.Add(uint64(len(s.events) - before))
	}
	for _, n := range nodes {
		if n.state == stateDraining && n.env.Engine.Idle() && n.undelivered() == 0 {
			n.state = stateStandby
			s.events = append(s.events, ScaleEvent{At: start, Machine: n.name, Action: "offline"})
		}
	}

	// Route this barrier's arrivals, class by class. Matured retries
	// go first so their (older) arrival times stay ahead of fresh
	// traffic in each node's inbox.
	s.bal.sample(nodes)
	queued := 0
	for i := range nodes {
		queued += s.bal.qlen[i]
	}
	if fe != nil {
		fe.dispatchDue(start, nodes, s.bal)
	}
	for k, g := range s.gens {
		arrivals := g.Emit(start, cfg.BarrierS)
		if len(arrivals) == 0 {
			continue
		}
		s.routable = routableNodes(nodes, k, s.routable[:0])
		if len(s.routable) == 0 {
			s.shed += len(arrivals)
			if cfg.Source != nil {
				// Live mode: the submitter is a blocked HTTP handler, so
				// an unroutable arrival must resolve its trace rather
				// than vanish. Offline runs keep the silent-drop
				// accounting their goldens pin.
				for _, r := range arrivals {
					if rt != nil {
						r.TraceID = reqtrace.MakeTraceID(k, r.ID)
					}
					rt.Shed(r.TraceID, start, "unrouted", -1)
				}
			}
			continue
		}
		for _, r := range arrivals {
			if rt != nil {
				r.TraceID = reqtrace.MakeTraceID(k, r.ID)
			}
			i := s.bal.pick(k, nodes, s.routable)
			nodes[i].inbox = append(nodes[i].inbox, r)
			nodes[i].requests++
		}
		s.cRouted.Add(uint64(len(arrivals)))
	}

	// Step every machine one epoch, concurrently, in contiguous
	// shards. stepEpoch touches only its own node and the merge below
	// runs in machine-index order, so the simulation is independent of
	// the worker width; each shard stops at its first failure, so the
	// lowest-indexed one is reported.
	if err := runner.Shard(s.ctx, len(nodes), 0, s.ropt,
		func(_ context.Context, lo, hi int) error {
			for _, n := range nodes[lo:hi] {
				if err := stepEpoch(cfg, n, start, s.steps); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
		return err
	}

	// Merge, in machine-index order: charge each prefill export's
	// KV transfer on the link and schedule its delivery at the
	// least-loaded decode machine, no earlier than the next barrier.
	for i, n := range nodes {
		if len(n.exports) == 0 {
			continue
		}
		for _, ex := range n.exports {
			if fe != nil && n.linkDown {
				// The source's egress is partitioned: the KV pages
				// cannot ship, so the prefill is recomputed elsewhere
				// (charged honestly through the retry path).
				fe.recomputed++
				fe.cRecomputed.Inc()
				rt.CrashLost(ex.req.TraceID, end, i)
				fe.scheduleRetry(end, ex.req, n.class)
				continue
			}
			tgt := pickDecodeTarget(nodes, n.class, i)
			if tgt < 0 {
				if fe != nil {
					// No surviving sink right now: retry rather than
					// drop — capacity may recover.
					fe.recomputed++
					fe.cRecomputed.Inc()
					rt.CrashLost(ex.req.TraceID, end, i)
					fe.scheduleRetry(end, ex.req, n.class)
					continue
				}
				ex.req.Done = true
				s.shed++
				continue
			}
			bytes := cfg.Model.KVBytesPerToken() * float64(ex.req.PromptLen)
			done := s.link.transfer(i, ex.readyAt, bytes)
			if done < end {
				done = end
			}
			t := nodes[tgt]
			t.pending = append(t.pending, handoff{req: ex.req, src: i, deliverAt: done})
			t.handRecv++
		}
		s.cHandoffs.Add(uint64(len(n.exports)))
		n.exports = n.exports[:0]
	}
	// Interleaved sources can append out of order; keep the
	// undelivered tail sorted by (deliverAt, ID).
	for _, n := range nodes {
		tail := n.pending[n.handIdx:]
		if len(tail) > 1 {
			sort.SliceStable(tail, func(a, b int) bool {
				if tail[a].deliverAt != tail[b].deliverAt {
					return tail[a].deliverAt < tail[b].deliverAt
				}
				return tail[a].req.ID < tail[b].req.ID
			})
		}
	}

	active, powered, capacity := 0, 0, 0.0
	upSum, downSum := 0.0, 0.0
	for _, n := range nodes {
		n.gState.Set(float64(n.state))
		if n.state == stateActive {
			active++
		}
		if n.charge(cfg.BarrierS) {
			powered++
			capacity += n.capacity
		}
		upSum += n.upS
		downSum += n.downtimeS
	}
	s.gActive.Set(float64(active))
	s.gPowered.Set(float64(powered))
	s.gRate.Set(s.rate)
	s.gQueue.Set(float64(queued))
	if capacity > 0 {
		s.gUtil.Set(s.rate / capacity)
	}
	avail := 1.0
	if downSum > 0 {
		avail = upSum / (upSum + downSum)
	}
	s.gAvail.Set(avail)
	rt.Publish()
	if cfg.Progress != nil {
		cfg.Progress(end)
	}
	s.bi++
	return nil
}

// finishAt runs the accounting tail over the measurement window
// [WarmupS, endS]: per-node post-warmup deltas, summed.
func (s *session) finishAt(endS float64) (Result, error) {
	cfg, nodes := s.cfg, s.nodes
	// Settle deferred work: elided spans replay exactly; archetype
	// spans advance coarsely.
	settle := s.catchUp
	if s.arch != nil {
		settle = s.archFinish
	}
	if err := settle(); err != nil {
		return Result{}, err
	}
	s.rt.Publish()
	if cfg.ReqTrace != nil {
		cfg.ReqTrace.ExportChrome(cfg.Trace)
	}

	elapsed := endS - cfg.WarmupS
	res := Result{Policy: cfg.Policy.String(), Nodes: len(nodes), Unrouted: s.shed}
	var prefills, ttftMet, tokMet, tokAll float64
	var counts []int
	for _, n := range nodes {
		n.maybeSnapshot(cfg.WarmupS, endS) // no-op unless never crossed
		st := n.env.Engine.Stats()
		d := func(a, b float64) float64 { return (a - b) / elapsed }
		perfH := d(st.GuaranteedPrefillTokens, n.baseStats.GuaranteedPrefillTokens)
		perfL := d(st.TPOTMet, n.baseStats.TPOTMet)
		watts := (n.env.M.EnergyJ() - n.baseEnergy) / elapsed
		res.PerfH += perfH
		res.PerfL += perfL
		res.Watts += watts
		if n.env.BEID != 0 {
			cur, _ := n.env.M.Stats(n.env.BEID)
			res.PerfN += cur.Sub(n.baseBE).Work / elapsed
		}
		res.GoodTokensPS += d(st.GuaranteedTokens, n.baseStats.GuaranteedTokens)
		prefills += float64(st.PrefillRequests - n.baseStats.PrefillRequests)
		ttftMet += float64(st.TTFTMetScaled - n.baseStats.TTFTMetScaled)
		tokAll += st.DecodeTokens - n.baseStats.DecodeTokens
		tokMet += st.TPOTMet - n.baseStats.TPOTMet
		res.MachineSecondsActive += n.activeS
		if n.spec.Role != RoleDecode && !n.spec.Standby {
			counts = append(counts, n.requests)
		}
		res.PerNode = append(res.PerNode, NodeResult{
			Name: n.name, Role: n.spec.Role.String(), State: n.state.String(),
			Requests: n.requests, HandoffsIn: n.handRecv,
			PerfH: perfH, PerfL: perfL, Watts: watts, ActiveS: n.activeS,
			DowntimeS: n.downtimeS, Crashes: n.crashes,
		})
	}
	if prefills > 0 {
		res.TTFTGuar = ttftMet / prefills
	}
	if tokAll > 0 {
		res.TPOTGuar = tokMet / tokAll
	}
	res.Eff = metrics.Efficiency(metrics.DefaultPrices(s.gamma), res.PerfH, res.PerfL, res.PerfN, res.Watts)
	res.Imbalance = coefficientOfVariation(counts)
	res.Handoffs = s.link.count
	res.KVBytes = s.link.bytes
	if s.link.count > 0 {
		res.MeanKVDelayS = s.link.delaySum / float64(s.link.count)
	}
	res.ScaleEvents = s.events
	res.Availability = 1
	var upSum, downSum float64
	for _, n := range nodes {
		upSum += n.upS
		downSum += n.downtimeS
	}
	if downSum > 0 {
		res.Availability = upSum / (upSum + downSum)
	}
	var ttfts []float64
	for _, n := range nodes {
		ttfts = append(ttfts, n.env.Engine.Stats().RecentTTFTs()...)
	}
	res.TTFTp99 = perfmon.Percentile(ttfts, 99)
	if s.fe != nil {
		res.Crashes = s.fe.crashes
		res.Outages = s.fe.outages
		if s.fe.outages > 0 {
			res.MTTRs = s.fe.mttrSum / float64(s.fe.outages)
		}
		res.Retried = s.fe.retried
		res.Redispatched = s.fe.redispatched
		res.Recomputed = s.fe.recomputed
		res.KVRerouted = s.fe.rerouted
		res.FailedRequests = s.fe.failed
		res.HealthEvents = s.fe.events
	}
	return res, nil
}

// Session drives a fleet one barrier at a time with no horizon bound —
// the serving gateway's handle. Unlike Run, a Session keeps stepping
// for as long as its owner calls Step; Config.HorizonS only sizes the
// default measurement window if Finish is called early. All methods
// must be called from a single goroutine.
type Session struct{ s *session }

// NewSession validates the Config and builds the fleet without
// advancing time. Config.Source (a live arrival feed) is the usual
// reason to prefer a Session over Run.
func NewSession(cfg Config) (*Session, error) {
	v, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s, err := newSession(v)
	if err != nil {
		return nil, err
	}
	return &Session{s: s}, nil
}

// Config returns the validated configuration (defaults filled in).
func (s *Session) Config() Config { return s.s.cfg }

// Now reports the simulated time reached so far: barriers stepped
// times the barrier interval.
func (s *Session) Now() float64 { return s.s.now() }

// Step advances the fleet exactly one barrier interval, through the
// event core (or the archetype loop when Config.Archetypes is set).
func (s *Session) Step() error { return s.s.advance() }

// StepUntil advances barriers until the simulated clock reaches at
// least t. Inert barriers inside the span are elided, so catching a
// long-idle session up to "now" costs far less than stepping each
// barrier's fleet scan.
func (s *Session) StepUntil(t float64) error {
	for s.s.now() < t-1e-9 {
		if err := s.s.advance(); err != nil {
			return err
		}
	}
	return nil
}

// NextEventAt reports a lower bound on the simulated time of the next
// barrier the event core must actually execute: Now() when the
// upcoming barrier is not provably inert, +Inf when no event source
// has anything scheduled (a fully idle session with a live source is
// woken by its next Submit), otherwise the start of the earliest
// barrier that observes a scheduled event. The bound may be early —
// the core re-checks at every barrier — never late. The archetype
// loop keeps no event scan, so under Config.Archetypes it is Now().
func (s *Session) NextEventAt() float64 { return s.s.nextBusyBarrierAt() }

func (s *session) nextBusyBarrierAt() float64 {
	if s.arch != nil {
		return s.now()
	}
	if !s.canElide() {
		return s.now()
	}
	B := s.cfg.BarrierS
	next := math.Inf(1)
	add := func(t float64) {
		if t < next {
			next = t
		}
	}
	for _, g := range s.gens {
		add(g.NextEventAt(s.now()))
	}
	if s.qpsIdx < len(s.cfg.QPS) {
		add(s.cfg.QPS[s.qpsIdx].At)
	}
	if s.ev.warmingAny {
		add(s.ev.minActiveAt)
	}
	if fe := s.fe; fe != nil {
		add(fe.inj.NextEventAt())
		for _, e := range fe.retryq {
			add(e.at)
		}
	}
	if sc := s.scaler; sc != nil {
		if s.ev.spanHi {
			add(s.now() + float64(sc.cfg.HoldBarriers-sc.hiStreak)*B)
		}
		if s.ev.spanLo && s.ev.spanPowered > sc.cfg.MinActive {
			add(s.now() + float64(sc.cfg.HoldBarriers-sc.loStreak)*B)
		}
	}
	if math.IsInf(next, 1) {
		return next
	}
	// Snap to the start of the barrier whose window observes the
	// event; rounding down an epsilon keeps the bound early, which the
	// per-barrier re-check makes safe.
	bi := int(math.Ceil(next/B-1e-9)) - 1
	if bi < s.bi {
		bi = s.bi
	}
	return float64(bi) * B
}

// Finish closes the measurement window and returns the fleet result.
// The window ends at the configured horizon or the time actually
// reached, whichever is later.
func (s *Session) Finish() (Result, error) {
	return s.s.finishAt(math.Max(s.s.cfg.HorizonS, s.s.now()))
}
