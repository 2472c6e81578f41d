// Fleet session: the barrier loop of run(), factored into an object
// that can be driven one barrier at a time. The offline path (run)
// executes exactly the same statements in the same order as before the
// factoring — a session is a cursor over the loop, not a new engine —
// so fleet results stay byte-identical at every worker width. The
// open-ended path (Session) exists for the serving gateway: it steps
// the same loop against a live arrival source with no horizon bound,
// calling Finish only when the daemon shuts down.
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
	"aum/internal/reqtrace"
	"aum/internal/rng"
	"aum/internal/runner"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
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
	steps    int   // machine ticks per barrier
	warm     int64 // tick that opens the measurement window
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
		// Archetype mode leaves machines bare: a per-machine telemetry
		// scope would pin every machine to the exact per-tick path
		// (machine.CoarseReady refuses observed machines), defeating the
		// memoization — and at 100k machines the scopes alone dominate
		// memory.
		var scope *telemetry.Registry
		if !cfg.Archetypes && cfg.Telemetry != nil {
			scope = cfg.Telemetry.Child(fmt.Sprintf("m%02d", i))
		}
		name := fmt.Sprintf("%s-%d", spec.Plat.Name, i)
		n := &node{role: spec.Role, standby: spec.Standby, class: classOf[i]}
		var handoff func(r *serve.Request, now float64)
		if spec.Role == RolePrefill {
			handoff = func(r *serve.Request, now float64) {
				n.exports = append(n.exports, export{req: r, readyAt: now})
			}
		}
		var err error
		n.Node, err = colo.NewNode(colo.Config{Plat: spec.Plat, Model: cfg.Model, Scen: scen, BE: cfg.BE,
			Manager: spec.Mgr, WarmupS: cfg.WarmupS, Admission: cfg.Admission, Telemetry: scope, ReqTrace: rt},
			rng.Derive(cfg.Seed, uint64(i)).Uint64(), i, handoff)
		if err != nil {
			return nil, fmt.Errorf("cluster: %s: %w", name, err)
		}
		n.Name = name
		n.capacity = requestCapacity(spec.Plat, cfg.Model, scen)
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
		ropt:  runner.Options{Workers: cfg.Workers},
		steps: int(math.Round(cfg.BarrierS / machine.DT)),
		warm:  machine.TickOf(cfg.WarmupS),
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
	}
	s.refreshEventScan()
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

// barrierTick is the machine tick at which barrier b starts.
func (s *session) barrierTick(b int) int64 { return int64(b) * int64(s.steps) }

// barrierOf is the first barrier that starts at or after tick k, or
// never for math.MaxInt64 (machine.TickOf of a time that never comes).
func (s *session) barrierOf(k int64) int {
	if k == math.MaxInt64 {
		return never
	}
	return int((k + int64(s.steps) - 1) / int64(s.steps))
}

// at is the simulated time of barrier b's start, on the machines' own
// clock: every node's Now() reads at(b) when barrier b begins.
func (s *session) at(b int) float64 { return machine.Time(s.barrierTick(b)) }

// now is the simulated time of the next barrier's start.
func (s *session) now() float64 { return s.at(s.bi) }

// openBarrier is every executed barrier's prologue: the QPS points due
// at its start take effect.
func (s *session) openBarrier() {
	qps := s.cfg.QPS
	for s.qpsIdx < len(qps) && machine.TickOf(qps[s.qpsIdx].At) <= s.barrierTick(s.bi) {
		s.rate = qps[s.qpsIdx].RatePerS
		s.qpsIdx++
	}
	s.setRate(s.rate)
}

// closeBarrier is every barrier's epilogue, executed or elided:
// publish the request traces, report progress, advance the clock.
func (s *session) closeBarrier() {
	s.rt.Publish()
	if s.cfg.Progress != nil {
		s.cfg.Progress(s.at(s.bi + 1))
	}
	s.bi++
}

// step executes one barrier interval across the whole fleet — the
// event core's executed-barrier body — ending with the single-threaded
// merge and telemetry publish.
func (s *session) step() error {
	cfg, nodes, rt, fe := s.cfg, s.nodes, s.rt, s.fe
	tick, start, end := s.barrierTick(s.bi), s.now(), s.at(s.bi+1)
	s.openBarrier()

	// Fleet faults strike before any routing or scaling decision, so
	// the rest of the barrier already sees the post-fault health
	// states — a crashed node takes no arrivals this barrier.
	if fe != nil {
		fe.apply(tick, cfg, nodes, s.link)
	}

	// Lifecycle transitions, then this barrier's scaling decision.
	for _, n := range nodes {
		if n.state == stateWarming && tick >= n.activeAt {
			n.state = stateActive
			s.events = append(s.events, ScaleEvent{At: start, Machine: n.Name, Action: "active"})
		}
	}
	if s.scaler != nil {
		before := len(s.events)
		s.scaler.observe(tick, s.rate, nodes, &s.events)
		s.cScale.Add(uint64(len(s.events) - before))
	}
	for _, n := range nodes {
		if n.state == stateDraining && n.Engine.Idle() && n.undelivered() == 0 {
			n.state = stateStandby
			s.events = append(s.events, ScaleEvent{At: start, Machine: n.Name, Action: "offline"})
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
		arrivals := g.Emit(start, end-start)
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
			nodes[i].Inbox = append(nodes[i].Inbox, r)
			nodes[i].requests++
		}
		s.cRouted.Add(uint64(len(arrivals)))
	}

	// Step every machine one epoch; the merge below runs in
	// machine-index order, so the simulation is independent of the
	// worker width.
	if err := s.stepNodes(s.bi, 0); err != nil {
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
	var up, down int64
	for _, n := range nodes {
		n.gState.Set(float64(n.state))
		if n.state == stateActive {
			active++
		}
		if n.charge(1) {
			powered++
			capacity += n.capacity
		}
		up += n.upB
		down += n.downB
	}
	s.gActive.Set(float64(active))
	s.gPowered.Set(float64(powered))
	s.gRate.Set(s.rate)
	s.gQueue.Set(float64(queued))
	if capacity > 0 {
		s.gUtil.Set(s.rate / capacity)
	}
	s.gAvail.Set(availability(up, down))
	s.closeBarrier()
	return nil
}

// availability is the serving-time fraction up/(up+down) of barrier
// counts, 1 when no barrier was spent in an outage.
func availability(up, down int64) float64 {
	if down == 0 {
		return 1
	}
	return float64(up) / float64(up+down)
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

	elapsed := endS - cfg.WarmupS
	secs := func(barriers int64) float64 { return machine.Time(barriers * int64(s.steps)) }
	res := Result{Policy: cfg.Policy.String(), Nodes: len(nodes), Unrouted: s.shed}
	var prefills, ttftMet, tokMet, tokAll float64
	var activeB, upB, downB int64
	var counts []int
	for _, n := range nodes {
		r := n.Measure(elapsed)
		res.PerfH += r.PerfH
		res.PerfL += r.PerfL
		res.Watts += r.Watts
		res.PerfN += r.PerfN
		res.GoodTokensPS += r.GoodTokensPS
		st, base := n.Engine.Stats(), &n.Base.Stats
		prefills += float64(st.PrefillRequests - base.PrefillRequests)
		ttftMet += float64(st.TTFTMetScaled - base.TTFTMetScaled)
		tokAll += st.DecodeTokens - base.DecodeTokens
		tokMet += st.TPOTMet - base.TPOTMet
		activeB += n.activeB
		upB += n.upB
		downB += n.downB
		if n.role != RoleDecode && !n.standby {
			counts = append(counts, n.requests)
		}
		res.PerNode = append(res.PerNode, NodeResult{
			Name: n.Name, Role: n.role.String(), State: n.state.String(),
			Requests: n.requests, HandoffsIn: n.handRecv,
			PerfH: r.PerfH, PerfL: r.PerfL, Watts: r.Watts, ActiveS: secs(n.activeB),
			DowntimeS: secs(n.downB), Crashes: n.crashes,
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
	res.MachineSecondsActive = secs(activeB)
	res.Availability = availability(upB, downB)
	var ttfts []float64
	for _, n := range nodes {
		ttfts = append(ttfts, n.Engine.Stats().RecentTTFTs()...)
	}
	res.TTFTp99 = perfmon.Percentile(ttfts, 99)
	if s.fe != nil {
		res.Crashes = s.fe.crashes
		res.Outages = s.fe.outages
		if s.fe.outages > 0 {
			res.MTTRs = machine.Time(s.fe.mttrTicks) / float64(s.fe.outages)
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

// StepUntil advances barriers until the simulated clock reaches t: it
// stops at the first barrier start at or after t. Inert barriers on
// the way are elided, so catching a long-idle session up costs far
// less than stepping each barrier's fleet scan.
func (s *Session) StepUntil(t float64) error {
	for k := machine.TickOf(t); s.s.barrierTick(s.s.bi) < k; {
		if err := s.s.advance(); err != nil {
			return err
		}
	}
	return nil
}

// NextEventAt reports the start of the next barrier the event core
// must execute: Now() when the upcoming barrier is not inert, +Inf
// when no event source has anything scheduled (a fully idle session
// with a live source is woken by its next Submit), otherwise the start
// of the first barrier at which a scheduled event fires. Every barrier
// before it is elided. The archetype loop keeps no event scan, so
// under Config.Archetypes it is Now().
func (s *Session) NextEventAt() float64 {
	ss := s.s
	if ss.arch != nil || !ss.ev.idle() {
		return ss.now()
	}
	if due := ss.nextDue(); due != never {
		return ss.at(due)
	}
	return math.Inf(1)
}

// Finish closes the measurement window and returns the fleet result.
// The window ends at the configured horizon or the time actually
// reached, whichever is later.
func (s *Session) Finish() (Result, error) {
	return s.s.finishAt(math.Max(s.s.cfg.HorizonS, s.s.now()))
}
