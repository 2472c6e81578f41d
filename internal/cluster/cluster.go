// Package cluster scales AUM from one machine to a fleet — the
// extension Section VIII sketches: "for sharding workloads across
// multiple servers, we can analyze the AUV of every processor and adopt
// load balancing to maximize their efficiency separately."
//
// A fleet is a heterogeneous set of simulated machines (mixed
// platforms, scenarios, and prefill/decode roles), each running its own
// serving engine, co-runner, and per-machine resource manager. The
// simulation advances in *tick barriers*: machines step independently
// — and concurrently, over the internal/runner worker pool — for one
// barrier interval, and everything that couples them happens
// single-threaded at the barrier in machine-index order: request
// routing (BalancePolicy), KV-cache handoff between disaggregated
// prefill and decode tiers (LinkConfig), and AUV-aware autoscaling
// against a QPS trace (AutoscaleConfig). Results are therefore
// independent of the worker width, extending the determinism contract
// of DESIGN.md §6 to the fleet layer (§8).
package cluster

import (
	"fmt"
	"math"

	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/vcfg"
	"aum/internal/workload"
)

// Role is a machine's position in a disaggregated serving fleet.
type Role int

const (
	// RoleMixed serves both phases locally (the default).
	RoleMixed Role = iota
	// RolePrefill runs prompt processing only and hands each prefilled
	// request — with its KV cache — to a decode machine over the link.
	RolePrefill
	// RoleDecode accepts handed-off requests for token generation; the
	// balancer never routes fresh arrivals to it.
	RoleDecode
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleMixed:
		return "mixed"
	case RolePrefill:
		return "prefill"
	case RoleDecode:
		return "decode"
	}
	return "unknown"
}

// MachineSpec describes one machine in the fleet.
type MachineSpec struct {
	Plat platform.Platform
	Mgr  colo.Manager
	Role Role
	// Scen, when set, overrides Config.Scen for this machine.
	// Machines serving the same scenario form a routing class;
	// arrivals of a class only ever route within it.
	Scen *trace.Scenario
	// Standby machines start powered off in the autoscaler's pool.
	Standby bool
}

// RatePoint is one step of a QPS trace: from time At on, the fleet's
// aggregate offered rate is RatePerS.
type RatePoint struct {
	At       float64
	RatePerS float64
}

// Config assembles a fleet simulation. The zero value of every field
// selects a documented default; withDefaults rejects out-of-range
// values with errors that name the field and the legal range.
type Config struct {
	Machines []MachineSpec
	// Model is served on every machine (default Llama2-7B).
	Model llm.Model
	// Scen is the default scenario class (default chatbot); per-machine
	// MachineSpec.Scen overrides it.
	Scen trace.Scenario
	// BE, when set, co-runs on every machine.
	BE     *workload.Profile
	Policy BalancePolicy

	HorizonS float64 // simulated duration (default 40)
	WarmupS  float64 // excluded from measurement (default HorizonS/6)
	DT       float64 // machine time step (default 1 ms)
	// BarrierS is the tick-barrier interval: machines step
	// independently for this long between the single-threaded
	// routing/handoff/autoscale points (default 50 ms; rounded to a
	// whole number of DT steps).
	BarrierS float64
	Seed     uint64
	// RatePerS is the fleet's aggregate offered rate (0 = the sum of
	// each machine's scenario default). Multi-class fleets split it
	// across classes in proportion to the class default rates.
	RatePerS float64
	// QPS, when set, drives the offered rate over time: each point
	// takes effect at the first barrier at or after its At. RatePerS
	// is the rate before the first point.
	QPS []RatePoint
	// Source, when set, replaces the synthetic arrival generator with
	// an external feed (trace.NewLiveSource) — the serving gateway's
	// injection point. Requires a single scenario class; RatePerS/QPS
	// then only shape telemetry, not arrivals (a live source ignores
	// SetRate).
	Source trace.Source
	// Admission bounds every engine's queues under overload
	// (serve.Admission); the zero value admits everything. The gateway
	// maps sheds onto HTTP 429.
	Admission serve.Admission
	// Autoscale, when set, lets the fleet add and drain machines
	// against the offered rate. Requires an all-RoleMixed single-class
	// fleet; Standby machines form the pool.
	Autoscale *AutoscaleConfig
	// Link prices KV-cache transfers between prefill and decode tiers.
	Link LinkConfig
	// Faults, when set, injects fleet-level failures (machine crashes,
	// link partitions/brownouts, stragglers) and enables the failover
	// machinery: health states, retry with backoff, KV re-handoff.
	Faults *FaultConfig
	// Trace, when set, receives failover spans (outages, redispatches)
	// in Chrome trace_event form.
	Trace *telemetry.Trace
	// ReqTrace, when set, records per-request causal traces across the
	// fleet: span trees with failover hops, blame vectors, and SLO
	// burn-rate timelines (package reqtrace). Observation-only.
	ReqTrace *reqtrace.Tracer
	// Workers caps how many machines step concurrently within an epoch
	// (0 = GOMAXPROCS). The width never changes results (DESIGN.md §8).
	Workers int
	// Telemetry, when set, scopes each machine into Child("m<ii>") and
	// publishes fleet-level gauges at every barrier.
	Telemetry *telemetry.Registry
	// Progress, when set, is called after every barrier with the fleet
	// time — the hook cmd/aumd's -fleet status line uses.
	Progress func(now float64)
	// Archetypes enables archetype memoization on top of the event
	// core: quiescent machines advance in O(1) closed form from an
	// interned per-class step capture (machine.ReplayCapture), adopted
	// by machines that have never stepped, with copy-on-divergence when
	// a request lands. This is the 100k-machine scale mode; it is
	// *approximate* (k× products instead of k iterated additions; see
	// DESIGN.md §14 for the error bound) and therefore restricted to
	// configurations whose idle dynamics are provably self-repeating:
	// all-mixed roles, round-robin routing, interval-free managers, and
	// no faults, autoscaler, co-runner, live source, or request tracing.
	// Hits are counted in aum_cluster_archetype_hits_total.
	Archetypes bool
}

// Option mutates a Config under construction; see New.
type Option func(*Config)

// WithMachines sets the fleet's machine list.
func WithMachines(specs ...MachineSpec) Option {
	return func(c *Config) { c.Machines = append(c.Machines, specs...) }
}

// WithModel sets the served model.
func WithModel(m llm.Model) Option { return func(c *Config) { c.Model = m } }

// WithScenario sets the default scenario class.
func WithScenario(s trace.Scenario) Option { return func(c *Config) { c.Scen = s } }

// WithCoRunner co-runs the profile on every machine.
func WithCoRunner(p workload.Profile) Option { return func(c *Config) { c.BE = &p } }

// WithPolicy selects the balancing policy.
func WithPolicy(p BalancePolicy) Option { return func(c *Config) { c.Policy = p } }

// WithHorizon sets the simulated duration and warmup (0 = defaults).
func WithHorizon(horizonS, warmupS float64) Option {
	return func(c *Config) { c.HorizonS, c.WarmupS = horizonS, warmupS }
}

// WithRate sets the aggregate offered rate.
func WithRate(perS float64) Option { return func(c *Config) { c.RatePerS = perS } }

// WithQPS sets the offered-rate trace.
func WithQPS(points ...RatePoint) Option {
	return func(c *Config) { c.QPS = append(c.QPS, points...) }
}

// WithSource replaces the synthetic arrival generator with a live
// external feed.
func WithSource(src trace.Source) Option { return func(c *Config) { c.Source = src } }

// WithAdmission sets the fleet-wide engine overload policy.
func WithAdmission(a serve.Admission) Option { return func(c *Config) { c.Admission = a } }

// WithAutoscale enables the AUV-aware autoscaler.
func WithAutoscale(a AutoscaleConfig) Option { return func(c *Config) { c.Autoscale = &a } }

// WithLink sets the KV-transfer link model.
func WithLink(l LinkConfig) Option { return func(c *Config) { c.Link = l } }

// WithFaults enables fleet-level fault injection and failover.
func WithFaults(f FaultConfig) Option { return func(c *Config) { c.Faults = &f } }

// WithTrace attaches a Chrome trace buffer for failover spans.
func WithTrace(tr *telemetry.Trace) Option { return func(c *Config) { c.Trace = tr } }

// WithRequestTracing attaches a per-request causal tracer.
func WithRequestTracing(rt *reqtrace.Tracer) Option {
	return func(c *Config) { c.ReqTrace = rt }
}

// WithSeed sets the root random seed.
func WithSeed(seed uint64) Option { return func(c *Config) { c.Seed = seed } }

// WithWorkers caps concurrent machine stepping.
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithTelemetry attaches a registry.
func WithTelemetry(reg *telemetry.Registry) Option { return func(c *Config) { c.Telemetry = reg } }

// WithProgress registers a per-barrier callback.
func WithProgress(fn func(now float64)) Option { return func(c *Config) { c.Progress = fn } }

// WithArchetypes enables archetype memoization: the approximate O(1)
// idle-advance mode for very large fleets.
func WithArchetypes() Option { return func(c *Config) { c.Archetypes = true } }

// New validates a fleet assembled from options and returns it ready to
// Run. Package-level Run accepts the Config struct directly; both
// paths share the same validation.
func New(opts ...Option) (*Cluster, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	v, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Cluster{cfg: v}, nil
}

// Cluster is a validated fleet.
type Cluster struct {
	cfg Config
}

// Config returns the validated configuration (defaults filled in).
func (c *Cluster) Config() Config { return c.cfg }

// Run executes the fleet simulation.
func (c *Cluster) Run() (Result, error) { return run(c.cfg) }

// Run executes a fleet simulation from a literal Config.
func Run(cfg Config) (Result, error) {
	v, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	return run(v)
}

// scenarioClasses returns the distinct scenarios the fleet serves (in
// first-appearance order) and each machine's class index.
func scenarioClasses(cfg Config) (classes []trace.Scenario, classOf []int) {
	classOf = make([]int, len(cfg.Machines))
	for i, spec := range cfg.Machines {
		s := cfg.Scen
		if spec.Scen != nil {
			s = *spec.Scen
		}
		idx := -1
		for k := range classes {
			if classes[k].Name == s.Name {
				idx = k
				break
			}
		}
		if idx < 0 {
			idx = len(classes)
			classes = append(classes, s)
		}
		classOf[i] = idx
	}
	return classes, classOf
}

func (c Config) withDefaults() (Config, error) {
	const pkg = "cluster"
	if len(c.Machines) == 0 {
		return c, vcfg.Bad(pkg, "Config.Machines", len(c.Machines), "a non-empty machine list (WithMachines)")
	}
	if c.Model.Name == "" {
		c.Model = llm.Llama2_7B()
	}
	if c.Scen.Name == "" {
		c.Scen = trace.Chatbot()
	}
	if c.Policy < RoundRobin || c.Policy > AUVAware {
		return c, vcfg.Bad(pkg, "Config.Policy", int(c.Policy), "round-robin (0), least-queued (1), or auv-aware (2)")
	}
	if c.HorizonS < 0 {
		return c, vcfg.Bad(pkg, "Config.HorizonS", c.HorizonS, "> 0 (0 selects the 40 s default)")
	}
	if c.HorizonS == 0 {
		c.HorizonS = 40
	}
	if c.WarmupS < 0 || c.WarmupS >= c.HorizonS {
		return c, vcfg.Bad(pkg, "Config.WarmupS", c.WarmupS, "in [0, HorizonS) (0 selects HorizonS/6)")
	}
	if c.WarmupS == 0 {
		c.WarmupS = c.HorizonS / 6
	}
	if c.DT < 0 || c.DT > c.HorizonS {
		return c, vcfg.Bad(pkg, "Config.DT", c.DT, "in (0, HorizonS] (0 selects the 1 ms default)")
	}
	if c.DT == 0 {
		c.DT = 1e-3
	}
	if c.BarrierS < 0 {
		return c, vcfg.Bad(pkg, "Config.BarrierS", c.BarrierS, ">= Config.DT (0 selects the 50 ms default)")
	}
	if c.BarrierS == 0 {
		c.BarrierS = 0.05
	}
	if c.BarrierS < c.DT {
		return c, vcfg.Bad(pkg, "Config.BarrierS", c.BarrierS, ">= Config.DT (0 selects the 50 ms default)")
	}
	// Epochs must tile the horizon in whole DT steps.
	c.BarrierS = math.Round(c.BarrierS/c.DT) * c.DT
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Workers < 0 {
		return c, vcfg.Bad(pkg, "Config.Workers", c.Workers, ">= 0 (0 uses GOMAXPROCS)")
	}
	for i, spec := range c.Machines {
		if spec.Mgr == nil {
			return c, vcfg.Bad(pkg, fmt.Sprintf("Config.Machines[%d].Mgr", i), nil, "a colo.Manager (e.g. manager.AllAU{})")
		}
		if spec.Plat.Cores <= 0 {
			return c, vcfg.Bad(pkg, fmt.Sprintf("Config.Machines[%d].Plat", i), spec.Plat.Name, "a platform with cores (platform.GenA() etc.)")
		}
		if spec.Role < RoleMixed || spec.Role > RoleDecode {
			return c, vcfg.Bad(pkg, fmt.Sprintf("Config.Machines[%d].Role", i), int(spec.Role), "mixed (0), prefill (1), or decode (2)")
		}
		if spec.Standby && c.Autoscale == nil {
			return c, vcfg.Bad(pkg, fmt.Sprintf("Config.Machines[%d].Standby", i), true, "paired with Config.Autoscale (standby machines join the scaling pool)")
		}
	}
	classes, classOf := scenarioClasses(c)
	if c.RatePerS < 0 {
		return c, vcfg.Bad(pkg, "Config.RatePerS", c.RatePerS, ">= 0 (0 selects the per-machine scenario defaults)")
	}
	if c.RatePerS == 0 {
		for i := range c.Machines {
			c.RatePerS += classes[classOf[i]].RatePerS
		}
	}
	prev := math.Inf(-1)
	for i, p := range c.QPS {
		if p.At < 0 || p.At <= prev {
			return c, vcfg.Bad(pkg, fmt.Sprintf("Config.QPS[%d].At", i), p.At, "non-negative and strictly increasing")
		}
		if p.RatePerS <= 0 {
			return c, vcfg.Bad(pkg, fmt.Sprintf("Config.QPS[%d].RatePerS", i), p.RatePerS, "> 0")
		}
		prev = p.At
	}
	if c.Admission.MaxQueue < 0 {
		return c, vcfg.Bad(pkg, "Config.Admission.MaxQueue", c.Admission.MaxQueue, ">= 0 (0 = unbounded)")
	}
	if c.Admission.MaxHeadWait < 0 {
		return c, vcfg.Bad(pkg, "Config.Admission.MaxHeadWait", c.Admission.MaxHeadWait, ">= 0 seconds (0 = disabled)")
	}
	if c.Admission.QueueDeadline < 0 {
		return c, vcfg.Bad(pkg, "Config.Admission.QueueDeadline", c.Admission.QueueDeadline, ">= 0 seconds (0 = no deadline)")
	}
	if c.Source != nil && len(classes) > 1 {
		return c, vcfg.Bad(pkg, "Config.Source", len(classes), "a single scenario class (a live source feeds one class)")
	}
	var err error
	if c.Link, err = c.Link.withDefaults(); err != nil {
		return c, err
	}
	if c.Faults != nil {
		f, err := c.Faults.withDefaults()
		if err != nil {
			return c, err
		}
		if err := f.Schedule.Validate(len(c.Machines)); err != nil {
			return c, vcfg.Bad(pkg, "Config.Faults.Schedule", err, "a fleet fault schedule valid for this machine list")
		}
		c.Faults = &f
	}
	if c.Autoscale != nil {
		a, err := c.Autoscale.withDefaults()
		if err != nil {
			return c, err
		}
		c.Autoscale = &a
		if len(classes) > 1 {
			return c, vcfg.Bad(pkg, "Config.Autoscale", len(classes), "a single scenario class (per-class autoscaling is not modelled)")
		}
		for i, spec := range c.Machines {
			if spec.Role != RoleMixed {
				return c, vcfg.Bad(pkg, fmt.Sprintf("Config.Machines[%d].Role", i), spec.Role.String(), "mixed when Config.Autoscale is set (disaggregated autoscaling is not modelled)")
			}
		}
	}
	// Every class needs a non-standby arrival target, and a prefill
	// tier needs a decode sink to hand off to.
	for k := range classes {
		prefillOK, decodeOK, hasPrefillRole := false, false, false
		for i, spec := range c.Machines {
			if classOf[i] != k || spec.Standby {
				continue
			}
			if spec.Role != RoleDecode {
				prefillOK = true
			}
			if spec.Role != RolePrefill {
				decodeOK = true
			}
			if spec.Role == RolePrefill {
				hasPrefillRole = true
			}
		}
		if !prefillOK {
			return c, vcfg.Bad(pkg, "Config.Machines", classes[k].Name, "served by at least one non-standby mixed or prefill machine")
		}
		if hasPrefillRole && !decodeOK {
			return c, vcfg.Bad(pkg, "Config.Machines", classes[k].Name, "given a decode sink (a mixed or decode machine) for its prefill tier")
		}
	}
	if c.Archetypes {
		// The archetype safety predicate (DESIGN.md §14) only holds for
		// configurations whose idle machines are provably self-repeating
		// and whose node states never change mid-run.
		if c.Policy != RoundRobin {
			return c, vcfg.Bad(pkg, "Config.Policy", c.Policy.String(), "round-robin when Config.Archetypes is set (queue-aware policies scan the whole fleet per pick)")
		}
		switch {
		case c.Faults != nil:
			return c, vcfg.Bad(pkg, "Config.Faults", "set", "unset when Config.Archetypes is set")
		case c.Autoscale != nil:
			return c, vcfg.Bad(pkg, "Config.Autoscale", "set", "unset when Config.Archetypes is set")
		case c.BE != nil:
			return c, vcfg.Bad(pkg, "Config.BE", "set", "unset when Config.Archetypes is set (co-runners are not interned)")
		case c.Source != nil:
			return c, vcfg.Bad(pkg, "Config.Source", "set", "unset when Config.Archetypes is set")
		case c.ReqTrace != nil:
			return c, vcfg.Bad(pkg, "Config.ReqTrace", "set", "unset when Config.Archetypes is set")
		}
		for i, spec := range c.Machines {
			if spec.Role != RoleMixed {
				return c, vcfg.Bad(pkg, fmt.Sprintf("Config.Machines[%d].Role", i), spec.Role.String(), "mixed when Config.Archetypes is set")
			}
			if spec.Mgr.Interval() != 0 {
				return c, vcfg.Bad(pkg, fmt.Sprintf("Config.Machines[%d].Mgr", i), spec.Mgr.Interval(), "an interval-free manager (Interval() == 0) when Config.Archetypes is set")
			}
		}
	}
	return c, nil
}

// nodeState is a machine's position in the activation lifecycle.
type nodeState int

const (
	stateStandby  nodeState = iota // powered off, in the scaling pool
	stateWarming                   // powered, loading the model, not routable
	stateActive                    // serving
	stateDraining                  // finishing in-flight work, not routable

	// Health states (DESIGN.md §10), reachable only under Config.Faults.
	stateSuspect    // crashed; the fleet has not confirmed the loss yet
	stateDown       // loss confirmed; in-flight work harvested
	stateRecovering // fault expired; rebooting, powered but not routable
)

func (s nodeState) String() string {
	switch s {
	case stateStandby:
		return "standby"
	case stateWarming:
		return "warming"
	case stateActive:
		return "active"
	case stateDraining:
		return "draining"
	case stateSuspect:
		return "suspect"
	case stateDown:
		return "down"
	case stateRecovering:
		return "recovering"
	}
	return "unknown"
}

// node is one machine plus its epoch-local state. During an epoch
// exactly one runner goroutine touches a node; between epochs only the
// single-threaded barrier code does.
type node struct {
	name     string
	spec     MachineSpec
	class    int
	env      *colo.Env
	capacity float64 // profiled requests/s (requestCapacity)

	state    nodeState
	activeAt float64 // warming/recovering -> active time
	nextTick float64

	// Health state (all zero unless Config.Faults is set).
	downSince    float64 // start of the current outage
	confirmAt    float64 // suspect -> down confirmation time
	crashes      int     // lifetime crash count (feeds the breaker)
	outages      int     // completed crash -> ready cycles
	breakerOpen  bool    // circuit breaker tripped
	linkDown     bool    // KV egress partitioned
	redispatched int     // crashed-elsewhere requests re-routed here
	upS          float64 // seconds spent serving (active/draining)
	downtimeS    float64 // seconds in suspect/down/recovering
	gState       *telemetry.Gauge

	inbox   []*serve.Request // this epoch's arrivals, sorted by Arrival
	exports []export         // prefill completions awaiting transfer
	pending []handoff        // KV transfers headed here; sorted from handIdx
	handIdx int

	requests int     // total fresh arrivals routed here
	handRecv int     // handed-off requests delivered here
	activeS  float64 // powered seconds

	measured   bool
	baseStats  serve.Stats
	baseEnergy float64
	baseBE     machine.TaskStats
}

// undelivered reports KV transfers still in flight toward the node.
func (n *node) undelivered() int { return len(n.pending) - n.handIdx }

// charge books dt seconds spent in the node's current state — serving
// (active, draining), outage (suspect, down, recovering) and powered
// (every live non-standby state; a recovering node reboots on power) —
// and reports whether the node was powered. The executed barrier and
// the replay of an elided span both charge once per barrier, so the
// per-node additions stay iterated in the same order however the span
// was advanced.
func (n *node) charge(dt float64) (powered bool) {
	switch n.state {
	case stateActive, stateDraining:
		n.upS += dt
	case stateSuspect, stateDown, stateRecovering:
		n.downtimeS += dt
	}
	if n.state == stateStandby || n.dead() {
		return false
	}
	n.activeS += dt
	return true
}

func (n *node) maybeSnapshot(warmupS, now float64) {
	if n.measured || now < warmupS {
		return
	}
	n.measured = true
	n.baseStats = n.env.Engine.Stats().Clone()
	n.baseEnergy = n.env.M.EnergyJ()
	if n.env.BEID != 0 {
		n.baseBE, _ = n.env.M.Stats(n.env.BEID)
	}
}

// Result aggregates fleet-level outcomes. Rates are post-warmup deltas
// over the measurement window, colo-style.
type Result struct {
	Policy string
	Nodes  int
	PerfH  float64 // guaranteed prefill tokens/s, fleet-wide
	PerfL  float64 // guaranteed decode tokens/s
	PerfN  float64 // harvested co-runner work units/s
	Watts  float64
	Eff    float64

	TTFTGuar float64
	TPOTGuar float64
	// GoodTokensPS is the fleet goodput: decode tokens produced within
	// their SLO per second.
	GoodTokensPS float64
	// Imbalance is the coefficient of variation of request counts over
	// the arrival-routable machines — the dispersion metric the
	// balancer is judged on.
	Imbalance float64
	// Unrouted counts arrivals dropped because no powered machine
	// could take their class (transient autoscaler gaps).
	Unrouted int

	// Disaggregation accounting.
	Handoffs     int     // KV transfers charged on the link
	KVBytes      float64 // bytes moved
	MeanKVDelayS float64 // mean prefill-done -> decode-arrival delay

	// Autoscaling accounting.
	ScaleEvents          []ScaleEvent
	MachineSecondsActive float64 // powered machine-seconds over the horizon

	// Fault-tolerance accounting (zero / empty when Config.Faults is
	// unset). Availability is the fleet's serving-time fraction:
	// Σ up-seconds / Σ (up + outage) seconds, 1.0 for a fault-free run.
	// MTTRs averages completed outages, crash to serving-again.
	Availability   float64
	MTTRs          float64
	Outages        int
	Crashes        int
	Retried        int // retry attempts scheduled after crashes
	Redispatched   int // retries actually re-routed to a survivor
	Recomputed     int // lost KV handoffs that fell back to prefill recompute
	KVRerouted     int // in-flight KV handoffs re-sent to a surviving sink
	FailedRequests int // dropped after exhausting the retry budget
	// TTFTp99 is the fleet-wide p99 time-to-first-token over the
	// per-node sliding windows — the tail metric the fleetchaos
	// experiment tracks for graceful degradation.
	TTFTp99      float64
	HealthEvents []HealthEvent

	PerNode []NodeResult
}

// NodeResult is one machine's share of the fleet outcome.
type NodeResult struct {
	Name       string
	Role       string
	State      string // lifecycle state at the horizon
	Requests   int
	HandoffsIn int
	PerfH      float64
	PerfL      float64
	Watts      float64
	ActiveS    float64
	DowntimeS  float64 // seconds lost to outages (suspect/down/recovering)
	Crashes    int
}

// run executes the offline path: build the session, step it through
// every barrier of the horizon, and close the accounting window at the
// horizon — statement-for-statement the loop this function always ran.
func run(cfg Config) (Result, error) {
	s, err := newSession(cfg)
	if err != nil {
		return Result{}, err
	}
	barriers := int(math.Round(cfg.HorizonS / cfg.BarrierS))
	for bi := 0; bi < barriers; bi++ {
		if err := s.advance(); err != nil {
			return Result{}, err
		}
	}
	return s.finishAt(cfg.HorizonS)
}

// stepEpoch advances one machine through [start, start+steps*DT),
// submitting its epoch inbox and delivering matured KV handoffs at
// their in-epoch times. It runs on a runner goroutine; it touches only
// its own node.
func stepEpoch(cfg Config, n *node, start float64, steps int) error {
	if n.state == stateStandby || n.dead() {
		// Powered off (standby) or crashed (suspect/down): the clock
		// advances, nothing runs, no energy accrues.
		n.env.M.AdvanceIdle(float64(steps) * cfg.DT)
		n.maybeSnapshot(cfg.WarmupS, n.env.M.Now())
		return nil
	}
	eng := n.env.Engine
	iv := n.spec.Mgr.Interval() // invariant across the epoch; hoisted
	end := start + float64(steps)*cfg.DT
	ffOn := machine.FastForward()
	ri := 0
	for k := 0; k < steps; {
		now := start + float64(k)*cfg.DT
		for ri < len(n.inbox) && n.inbox[ri].Arrival <= now+cfg.DT {
			if err := eng.Submit(n.inbox[ri]); err != nil {
				return err
			}
			ri++
		}
		for n.handIdx < len(n.pending) && n.pending[n.handIdx].deliverAt <= now+cfg.DT {
			if err := eng.InjectDecode(n.pending[n.handIdx].req, now+cfg.DT); err != nil {
				return fmt.Errorf("cluster: %s: %w", n.name, err)
			}
			n.handIdx++
		}
		if iv > 0 && now >= n.nextTick {
			if err := n.spec.Mgr.Tick(n.env, now); err != nil {
				return fmt.Errorf("cluster: %s tick: %w", n.name, err)
			}
			n.nextTick += iv
		}
		n.maybeSnapshot(cfg.WarmupS, now)
		// Skip horizon within the epoch (DESIGN.md §9): batch ticks up
		// to the next inbox arrival, KV delivery, manager tick, warmup
		// snapshot, or epoch end. The machine re-checks quiescence per
		// tick; this only skips the guard evaluations, which provably
		// cannot fire before the bound.
		nSteps := 1
		if ffOn {
			stop := end
			if ri < len(n.inbox) {
				if t := n.inbox[ri].Arrival - cfg.DT; t < stop {
					stop = t
				}
			}
			if t := n.nextDeliveryAt() - cfg.DT; t < stop {
				stop = t
			}
			if iv > 0 && n.nextTick < stop {
				stop = n.nextTick
			}
			if !n.measured && cfg.WarmupS < stop {
				stop = cfg.WarmupS
			}
			if d := int((stop-now)/cfg.DT - 0.5); d > 1 {
				nSteps = d
				if nSteps > steps-k {
					nSteps = steps - k
				}
			}
		}
		n.env.M.StepN(cfg.DT, nSteps)
		k += nSteps
	}
	n.inbox = n.inbox[:0]
	return nil
}

// nextDeliveryAt is the KV-handoff link's event-source bound
// (DESIGN.md §9): the earliest pending delivery not yet injected into
// this node's decode engine, or +Inf when the link is quiet. Handoffs
// are sorted by deliverAt at the barrier, so the head of the pending
// tail is the next event.
func (n *node) nextDeliveryAt() float64 {
	if n.handIdx < len(n.pending) {
		return n.pending[n.handIdx].deliverAt
	}
	return math.Inf(1)
}

// routableNodes lists the machines that may receive class-k arrivals:
// active, serving the class, and able to prefill.
func routableNodes(nodes []*node, class int, buf []int) []int {
	for i, n := range nodes {
		if n.state == stateActive && n.class == class && n.spec.Role != RoleDecode {
			buf = append(buf, i)
		}
	}
	return buf
}

// pickDecodeTarget selects the decode sink with the lightest committed
// load (batch + backlog + transfers already in flight to it),
// preferring dedicated decode machines over mixed ones. Ties break on
// the lowest index — the merge stays deterministic.
func pickDecodeTarget(nodes []*node, class, src int) int {
	for _, dedicated := range []bool{true, false} {
		best, bestLoad := -1, math.MaxInt
		for i, n := range nodes {
			if i == src || n.class != class || n.state != stateActive {
				continue
			}
			if dedicated != (n.spec.Role == RoleDecode) || n.spec.Role == RolePrefill {
				continue
			}
			load := n.env.Engine.DecodeBatch() + n.env.Engine.BacklogLen() + n.undelivered()
			if load < bestLoad {
				best, bestLoad = i, load
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// prefillCapacity estimates a platform's sustainable prefill rate in
// input tokens/s.
func prefillCapacity(p platform.Platform, m llm.Model) float64 {
	// Achievable AMX throughput at the license frequency over ~55% of
	// the cores (the high-AU region), at the calibrated ~24% software
	// efficiency, for 2 flops per parameter-token.
	cores := 0.55 * float64(p.Cores)
	gflops := p.AMXPeakGFLOPSPerCore(p.License.AMXHeavy) * cores * 0.24
	return gflops * 1e9 / (2 * m.LinearParams())
}

// requestCapacity summarizes a node's AUV into one number: how many of
// the scenario's requests it can serve per second, limited by either
// prefill compute or the decode iteration rate — the statistic the
// Section VIII balancer and the autoscaler consume ("analyze the AUV
// of every processor"). Decode capacity is evaluated with the same
// iteration cost model the machines run, on a typical managed decode
// region (~26% of the cores with most of the bandwidth).
func requestCapacity(p platform.Platform, m llm.Model, scen trace.Scenario) float64 {
	prefillReqPS := prefillCapacity(p, m) / float64(scen.MeanInput)
	plan := m.PlanDecode(16, scen.MeanInput+scen.MeanOutput/2)
	env := machine.Env{
		Plat: &p, Cores: int(0.26 * float64(p.Cores)), GHz: p.License.AVXHeavy,
		ComputeShare: 1, LLCMB: p.TotalLLCMB() * 0.5, L2MB: 48,
		BWGBs: p.MemBWGBs * 0.85,
	}
	decodeTokPS := 16 / llm.CostIteration(plan, env).TotalS
	decodeReqPS := decodeTokPS / float64(scen.MeanOutput)
	return math.Min(prefillReqPS, decodeReqPS)
}

func coefficientOfVariation(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	mean := 0.0
	for _, c := range counts {
		mean += float64(c)
	}
	mean /= float64(len(counts))
	if mean == 0 {
		return 0
	}
	varSum := 0.0
	for _, c := range counts {
		d := float64(c) - mean
		varSum += d * d
	}
	return math.Sqrt(varSum/float64(len(counts))) / mean
}
