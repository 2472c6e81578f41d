// Package aum is a reproduction of "AUM: Unleashing the Efficiency
// Potential of Shared Processors with Accelerator Units for LLM
// Serving" (HPCA 2026) as a self-contained Go library.
//
// The library has four layers:
//
//   - A calibrated machine simulator standing in for the paper's
//     AMX-enabled Xeons: roofline kernels with distinct AMX/AVX/scalar
//     peaks, a license/TDP frequency governor, a way-partitioned LLC,
//     max-min-arbitrated memory bandwidth, SMT contention, and top-down
//     cycle accounting (internal/machine and friends).
//   - The serving and co-runner workloads: an LLM engine with FCFS
//     prefill, continuous-batching decode, and TTFT/TPOT/LAG
//     bookkeeping, plus analytic models of the paper's best-effort
//     applications (internal/serve, internal/workload).
//   - AUM itself: the Background AU Profiler that condenses the
//     three-dimensional accelerator-unit variations into a discrete
//     AUV model, and the Runtime AU Controller implementing
//     Algorithm 1 (internal/core), next to the Table V baselines
//     (internal/manager).
//   - The fleet: many simulated machines stepped concurrently under
//     tick-barrier semantics, with AUV-aware load balancing,
//     autoscaling against a QPS trace, and disaggregated
//     prefill/decode serving over a KV-transfer link — the Section
//     VIII scale-out direction (internal/cluster, DESIGN.md §8).
//
// This package is the public facade: it re-exports the types needed to
// assemble experiments and provides constructors for every resource
// management scheme. Single-machine runs go through Run; fleets are
// assembled with NewCluster (functional options) or a FleetConfig
// literal handed to RunFleet. The examples/ directory shows complete
// programs; cmd/aumbench regenerates every table and figure of the
// paper, and cmd/aumd serves live telemetry from a single machine
// (-fleet for a whole cluster).
package aum

import (
	"io"
	"net"
	"net/http"

	"aum/internal/chaos"
	"aum/internal/cluster"
	"aum/internal/colo"
	"aum/internal/core"
	"aum/internal/experiments"
	"aum/internal/gateway"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/scenario"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/workload"
)

// Re-exported types. The aliases make the internal packages' documented
// types usable through the public API.
type (
	// Platform describes one evaluated machine (Table I).
	Platform = platform.Platform
	// Model is a transformer architecture from the zoo (Table II).
	Model = llm.Model
	// Scenario is an AU usage scenario (Table IV).
	Scenario = trace.Scenario
	// WorkloadProfile characterizes a best-effort co-runner.
	WorkloadProfile = workload.Profile
	// Manager is a resource management scheme (Table V).
	Manager = colo.Manager
	// RunConfig parameterizes one co-location run.
	RunConfig = colo.Config
	// RunResult summarizes one co-location run.
	RunResult = colo.Result
	// AUVModel is the profiled accelerator-unit-variation model.
	AUVModel = core.Model
	// ProfilerOptions tune the background profiler.
	ProfilerOptions = core.ProfilerOptions
	// ControllerOptions tune the runtime controller.
	ControllerOptions = core.Options
	// Experiment regenerates one paper table or figure.
	Experiment = experiments.Experiment
	// ResultTable is the rendered output of an experiment.
	ResultTable = experiments.Table
	// ExperimentOptions tune experiment fidelity.
	ExperimentOptions = experiments.Options
	// ChaosSchedule is a deterministic fault plan for robustness runs
	// (set RunConfig.Chaos).
	ChaosSchedule = chaos.Schedule
	// ChaosEvent is one scheduled fault in a ChaosSchedule.
	ChaosEvent = chaos.Event
	// Admission bounds the serving engine's queue and backlog (set
	// RunConfig.Admission).
	Admission = serve.Admission
	// ViolationWindow is one contiguous span of measured SLO violation
	// in a RunResult.
	ViolationWindow = colo.ViolationWindow
	// TelemetryRegistry collects counters, gauges, histograms, and the
	// structured event ring across the stack (set RunConfig.Telemetry).
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a deep, immutable copy of a registry tree.
	TelemetrySnapshot = telemetry.Snapshot
	// ScopedEvent is one structured event from a TelemetrySnapshot,
	// tagged with the scope path that recorded it.
	ScopedEvent = telemetry.ScopedEvent
	// ChromeTrace buffers Chrome trace_event records for chrome://tracing
	// (set RunConfig.TraceSink).
	ChromeTrace = telemetry.Trace
	// Env is the live single-machine environment a Manager controls;
	// custom managers receive it in Setup and Tick.
	Env = colo.Env
	// AUVDivision is one resource division of an AUVModel.
	AUVDivision = core.Division
	// Lab shares a profiled-model cache and a worker pool across
	// experiment runs.
	Lab = experiments.Lab
	// ExperimentConfig is the one-call form of experiment invocation
	// (see RunExperimentConfig).
	ExperimentConfig = experiments.Config
)

// The fleet layer (DESIGN.md §8): a cluster of simulated machines with
// AUV-aware balancing, autoscaling, and disaggregated serving.
type (
	// Cluster is a validated fleet, assembled with NewCluster.
	Cluster = cluster.Cluster
	// FleetConfig parameterizes one fleet simulation (literal-struct
	// form of NewCluster's options).
	FleetConfig = cluster.Config
	// FleetResult summarizes one fleet simulation.
	FleetResult = cluster.Result
	// FleetNodeResult is one machine's share of a FleetResult.
	FleetNodeResult = cluster.NodeResult
	// MachineSpec describes one machine in a fleet.
	MachineSpec = cluster.MachineSpec
	// BalancePolicy selects the machine for each arriving request.
	BalancePolicy = cluster.BalancePolicy
	// Role is a machine's position in a disaggregated fleet.
	Role = cluster.Role
	// RatePoint is one step of a fleet QPS trace.
	RatePoint = cluster.RatePoint
	// AutoscaleConfig parameterizes the AUV-aware autoscaler.
	AutoscaleConfig = cluster.AutoscaleConfig
	// ScaleEvent is one autoscaler state transition in a FleetResult.
	ScaleEvent = cluster.ScaleEvent
	// LinkConfig models the KV-transfer interconnect between
	// disaggregated prefill and decode machines.
	LinkConfig = cluster.LinkConfig
	// ClusterOption configures NewCluster.
	ClusterOption = cluster.Option
	// FaultConfig parameterizes fleet fault tolerance: the fault
	// schedule plus detection, retry/backoff, recovery, and circuit
	// breaker knobs (set FleetConfig.Faults).
	FaultConfig = cluster.FaultConfig
	// HealthEvent is one node health transition in a FleetResult.
	HealthEvent = cluster.HealthEvent
	// FleetSchedule is a deterministic fleet-level fault plan.
	FleetSchedule = chaos.FleetSchedule
	// FleetEvent is one scheduled fleet fault in a FleetSchedule.
	FleetEvent = chaos.FleetEvent
	// FleetKind is the fleet fault class of a FleetEvent.
	FleetKind = chaos.FleetKind
)

// The declarative workload DSL (DESIGN.md §11): versioned JSON/JSONC
// scenario files compiled onto the fleet layer, plus the composable
// arrival shapers they lower to.
type (
	// ScenarioSpec is one declarative scenario (schema version 1),
	// loaded from a JSON/JSONC file or built literally.
	ScenarioSpec = scenario.Spec
	// ScenarioRunOptions tune one scenario execution.
	ScenarioRunOptions = scenario.RunOptions
	// ScenarioMatrixOptions tune a scenario-matrix sweep.
	ScenarioMatrixOptions = scenario.MatrixOptions
	// TraceShaper modulates a Scenario's arrival rate over time (set
	// Scenario.Shape); implementations must bound Factor by MaxFactor.
	TraceShaper = trace.Shaper
	// Diurnal is a sinusoidal day/night arrival-rate curve.
	Diurnal = trace.Diurnal
	// FlashCrowd is a trapezoidal arrival-rate surge.
	FlashCrowd = trace.FlashCrowd
	// BurstStorm is a seeded train of correlated arrival bursts
	// (NewBurstStorm).
	BurstStorm = trace.BurstStorm
	// MixComponent is one weighted length distribution of a
	// multi-tenant mixture (set Scenario.Mix).
	MixComponent = trace.Component
)

// LoadScenario reads and validates one scenario file (JSON with
// optional // and /* */ comments and trailing commas).
func LoadScenario(path string) (*ScenarioSpec, error) { return scenario.Load(path) }

// ParseScenario parses and validates scenario bytes.
func ParseScenario(data []byte) (*ScenarioSpec, error) { return scenario.Parse(data) }

// LoadScenarioDir loads every *.json / *.jsonc scenario in dir, sorted
// by file name, rejecting duplicate scenario names.
func LoadScenarioDir(dir string) ([]*ScenarioSpec, error) { return scenario.LoadDir(dir) }

// CompileScenario lowers a scenario onto the fleet layer without
// running it — the FleetConfig a Go program would have written by hand.
func CompileScenario(s *ScenarioSpec) (FleetConfig, error) { return s.Compile() }

// RunScenario compiles and executes one scenario.
func RunScenario(s *ScenarioSpec, o ScenarioRunOptions) (FleetResult, error) {
	return scenario.Run(s, o)
}

// ScenarioMatrix sweeps scenarios through the lab's parallel pool and
// returns one comparison table, rows in input order (the aumbench
// -scenarios -matrix core).
func ScenarioMatrix(lab *Lab, specs []*ScenarioSpec, o ScenarioMatrixOptions) (*ResultTable, error) {
	return scenario.Matrix(lab, specs, o)
}

// NewBurstStorm returns a seeded burst-storm shaper: windows of durS
// seconds at factor times the base rate, spaced by exponential gaps
// with mean meanGapS, precomputed over horizonS.
func NewBurstStorm(meanGapS, durS, factor, horizonS float64, seed uint64) *BurstStorm {
	return trace.NewBurstStorm(meanGapS, durS, factor, horizonS, seed)
}

// ZipfMix returns an n-tenant Zipf(s) popularity mixture over a base
// scenario's length distribution (set Scenario.Mix); spread scales the
// tail tenants' request lengths.
func ZipfMix(base Scenario, n int, s, spread float64) []MixComponent {
	return trace.ZipfMix(base, n, s, spread)
}

// Balance policies and machine roles, re-exported for FleetConfig.
const (
	RoundRobin  = cluster.RoundRobin
	LeastQueued = cluster.LeastQueued
	AUVAware    = cluster.AUVAware

	RoleMixed   = cluster.RoleMixed
	RolePrefill = cluster.RolePrefill
	RoleDecode  = cluster.RoleDecode
)

// Fleet fault classes, re-exported for FleetSchedule.
const (
	MachineCrash = chaos.MachineCrash
	LinkDown     = chaos.LinkDown
	LinkBrownout = chaos.LinkBrownout
	Straggler    = chaos.Straggler
)

// Platforms returns the three evaluated platforms (Table I).
func Platforms() []Platform { return platform.All() }

// PlatformByName returns GenA, GenB, or GenC.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }

// GenA returns the default evaluation platform (SPR + DDR5).
func GenA() Platform { return platform.GenA() }

// Models returns the evaluated LLM architectures (Table II).
func Models() []Model { return llm.Zoo() }

// ModelByName returns a model from the zoo.
func ModelByName(name string) (Model, error) { return llm.ByName(name) }

// Llama2_7B returns the paper's primary serving model.
func Llama2_7B() Model { return llm.Llama2_7B() }

// Scenarios returns the Table IV scenarios (cb, cc, sm).
func Scenarios() []Scenario { return trace.All() }

// ScenarioByName returns a scenario by its short name.
func ScenarioByName(name string) (Scenario, error) { return trace.ByName(name) }

// CoRunners returns the Section V-A best-effort applications.
func CoRunners() []WorkloadProfile { return workload.CoRunners() }

// CoRunnerByName returns a co-runner profile by name.
func CoRunnerByName(name string) (WorkloadProfile, error) { return workload.ByName(name) }

// NewExclusive returns the AU-exclusive baseline (ALL-AU): the whole
// processor serves the LLM and any co-runner stays unscheduled.
func NewExclusive() Manager { return manager.AllAU{} }

// NewSMTSharing returns the AUV-oblivious SMT-sharing baseline
// (SMT-AU).
func NewSMTSharing() Manager { return manager.SMTAU{} }

// NewPartitioning returns the AUV-oblivious resource-partitioning
// baseline (RP-AU).
func NewPartitioning() Manager { return &manager.RPAU{} }

// Profile runs the Background AU Profiler for one platform / model /
// scenario / co-runner combination and returns the AUV model
// (Section VI-B). With default options this is the paper's
// 3 divisions x 5 configurations x 10 repetitions sweep.
func Profile(p Platform, m Model, s Scenario, be WorkloadProfile, opt ProfilerOptions) (*AUVModel, error) {
	return core.Profile(p, m, s, be, opt)
}

// LoadAUVModel reads a model written by (*AUVModel).Save.
func LoadAUVModel(path string) (*AUVModel, error) { return core.LoadModel(path) }

// NewAUM returns the full three-dimensional AU-aware manager
// (Algorithm 1) driven by a profiled AUV model.
func NewAUM(m *AUVModel, opt ControllerOptions) (Manager, error) { return core.NewAUM(m, opt) }

// NewUsageOnly returns the AU-UP ablation (usage-pattern awareness
// only).
func NewUsageOnly(m *AUVModel, opt ControllerOptions) (Manager, error) { return core.NewAUUP(m, opt) }

// NewFrequencyOnly returns the AU-FI ablation (frequency-interference
// awareness only).
func NewFrequencyOnly(m *AUVModel, opt ControllerOptions) (Manager, error) {
	return core.NewAUFI(m, opt)
}

// NewBoundOnly returns the AU-RB ablation (resource-bound awareness
// only).
func NewBoundOnly(m *AUVModel, opt ControllerOptions) (Manager, error) { return core.NewAURB(m, opt) }

// Run executes one co-location experiment: the LLM serving engine plus
// an optional co-runner under the given manager on a simulated machine.
func Run(cfg RunConfig) (RunResult, error) { return colo.Run(cfg) }

// NewCluster assembles and validates a fleet from functional options.
func NewCluster(opts ...ClusterOption) (*Cluster, error) { return cluster.New(opts...) }

// RunFleet executes a fleet simulation from a literal FleetConfig —
// the struct form of NewCluster(...).Run().
func RunFleet(cfg FleetConfig) (FleetResult, error) { return cluster.Run(cfg) }

// ParseBalancePolicy maps a policy name ("round-robin", "least-queued",
// "auv-aware") to its BalancePolicy — the form command-line flags carry.
func ParseBalancePolicy(s string) (BalancePolicy, error) { return cluster.ParseBalancePolicy(s) }

// Fleet options for NewCluster. Each wraps the corresponding
// FleetConfig field; zero values keep the documented defaults.
var (
	// WithMachines appends machines to the fleet.
	WithMachines = cluster.WithMachines
	// WithModel sets the served model.
	WithModel = cluster.WithModel
	// WithScenario sets the default scenario class.
	WithScenario = cluster.WithScenario
	// WithCoRunner co-runs the profile on every machine.
	WithCoRunner = cluster.WithCoRunner
	// WithPolicy selects the balancing policy.
	WithPolicy = cluster.WithPolicy
	// WithHorizon sets the simulated duration and warmup.
	WithHorizon = cluster.WithHorizon
	// WithRate sets the aggregate offered request rate.
	WithRate = cluster.WithRate
	// WithQPS sets the offered-rate trace.
	WithQPS = cluster.WithQPS
	// WithAutoscale enables the AUV-aware autoscaler.
	WithAutoscale = cluster.WithAutoscale
	// WithLink sets the KV-transfer link model.
	WithLink = cluster.WithLink
	// WithSeed sets the root random seed.
	WithSeed = cluster.WithSeed
	// WithWorkers caps concurrent machine stepping.
	WithWorkers = cluster.WithWorkers
	// WithTelemetry attaches a registry to the fleet.
	WithTelemetry = cluster.WithTelemetry
	// WithProgress registers a per-barrier callback.
	WithProgress = cluster.WithProgress
	// WithArchetypes enables archetype memoization in place of the
	// exact event core: quiescent machines advance coarsely on one
	// interned capture per scenario class. Approximate within a
	// documented tolerance; restricted to round-robin mixed fleets
	// without faults or autoscaling.
	WithArchetypes = cluster.WithArchetypes
	// WithFaults enables fleet fault tolerance under the given fault
	// schedule and retry policy.
	WithFaults = cluster.WithFaults
	// WithTrace attaches a ChromeTrace that records node outages,
	// failover, and recovery spans.
	WithTrace = cluster.WithTrace
	// WithRequestTracing attaches a per-request causal tracer that
	// records span trees, blame vectors, and SLO burn-rate timelines
	// across the fleet (NewRequestTracer).
	WithRequestTracing = cluster.WithRequestTracing
	// WithSource replaces the synthetic arrival generator with a live
	// request source (NewLiveSource) — the gateway injection path.
	WithSource = cluster.WithSource
	// WithAdmission bounds every machine's serving queue and backlog;
	// rejected requests are shed (the gateway maps them to HTTP 429).
	WithAdmission = cluster.WithAdmission
)

// NewTelemetryRegistry returns an empty metric/event registry to wire
// into RunConfig.Telemetry. Telemetry observes a run without changing
// its results (DESIGN.md §7).
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewChromeTrace returns an empty trace_event buffer to wire into
// RunConfig.TraceSink; write it out with WriteFile for chrome://tracing.
func NewChromeTrace() *ChromeTrace { return telemetry.NewTrace() }

// RecordTrace materializes horizon seconds of a scenario's request
// stream so runs can replay identical inputs (set RunConfig.Trace).
func RecordTrace(s Scenario, seed uint64, horizonS float64) *RecordedTrace {
	return trace.Record(s, seed, horizonS)
}

// LoadTrace reads a trace written by (*RecordedTrace).Save.
func LoadTrace(path string) (*RecordedTrace, error) { return trace.Load(path) }

// RecordedTrace is a persisted, replayable request stream.
type RecordedTrace = trace.Recorded

// PhaseFlipCoreLoss returns the canonical robustness fault plan: at
// time at the co-runner permanently flips into its unprofiled phase and
// the lowest cores go offline for outageS seconds.
func PhaseFlipCoreLoss(at float64, cores int, outageS float64) ChaosSchedule {
	return chaos.PhaseFlipCoreLoss(at, cores, outageS)
}

// CrashStorm returns a seeded, deterministic fleet crash schedule:
// crashes machine outages of downS seconds each, spread over the middle
// two-thirds of a horizonS-second run (set FaultConfig.Schedule).
func CrashStorm(machines, crashes int, horizonS, downS float64, seed uint64) FleetSchedule {
	return chaos.CrashStorm(machines, crashes, horizonS, downS, seed)
}

// ChaosStorm returns a denser mixed fault schedule for soak testing.
func ChaosStorm(startS, spacingS float64, seed uint64) ChaosSchedule {
	return chaos.Storm(startS, spacingS, seed)
}

// Experiments returns every registered paper artifact (tables and
// figures), sorted by ID.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment regenerates one table or figure by ID (e.g. "fig14").
func RunExperiment(id string, opt ExperimentOptions) (*ResultTable, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(experiments.NewLab(), opt)
}

// RunExperimentConfig regenerates one artifact from a validated
// ExperimentConfig — the struct form of RunExperiment, with worker and
// telemetry control.
func RunExperimentConfig(cfg ExperimentConfig) (*ResultTable, error) { return experiments.Run(cfg) }

// ExperimentByID returns a registered experiment without running it.
func ExperimentByID(id string) (Experiment, error) { return experiments.ByID(id) }

// NewLab returns an experiment Lab with a fresh profile cache; use it
// with Experiment.Run to share profiled AUV models across artifacts.
func NewLab() *Lab { return experiments.NewLab() }

// WritePrometheus renders a telemetry snapshot in Prometheus text
// exposition format.
func WritePrometheus(w io.Writer, s TelemetrySnapshot) error { return telemetry.WritePrometheus(w, s) }

// ValidatePrometheus checks a Prometheus text exposition stream for
// well-formedness (the promcheck command's core).
func ValidatePrometheus(r io.Reader) error { return telemetry.ValidatePrometheus(r) }

// Per-request causal tracing (DESIGN.md §12): deterministic span trees,
// critical-path blame attribution, and SLO burn-rate timelines. A
// RequestTracer observes a run without changing its results; set
// RunConfig.ReqTrace or use WithRequestTracing for fleets.
type (
	// RequestTracer records per-request lifecycle spans and blame.
	RequestTracer = reqtrace.Tracer
	// ReqTraceConfig parameterizes a RequestTracer (sampling, burn-rate
	// window, retention); the zero value keeps documented defaults.
	ReqTraceConfig = reqtrace.Config
	// RequestTrace is one finished request's span tree and blame
	// vectors, as returned by (*RequestTracer).Recent.
	RequestTrace = reqtrace.RequestTrace
	// RequestSpan is one interval in a RequestTrace.
	RequestSpan = reqtrace.Span
	// BlameReport is the fleet-wide critical-path blame table plus the
	// SLO burn-rate timeline, as returned by (*RequestTracer).Report.
	BlameReport = reqtrace.BlameReport
	// CategoryBlame is one blame category's share of a BlameReport.
	CategoryBlame = reqtrace.CategoryBlame
	// BurnReport is the SLO burn-rate timeline of a BlameReport.
	BurnReport = reqtrace.BurnReport
	// BurnPoint is one burn-rate window of a BurnReport.
	BurnPoint = reqtrace.BurnPoint
)

// NewRequestTracer returns a per-request causal tracer to wire into
// RunConfig.ReqTrace or WithRequestTracing.
func NewRequestTracer(cfg ReqTraceConfig) *RequestTracer { return reqtrace.New(cfg) }

// BlameCategories returns the blame taxonomy in canonical order —
// the category strings used by RequestTrace and CategoryBlame.
func BlameCategories() []string { return reqtrace.Categories() }

// SetRequestTracingForced globally forces request tracing on for runs
// that did not wire a tracer, exercising every hook with an invisible
// private tracer. Neutrality harness only: results and trace files stay
// byte-identical (the tracing determinism contract, DESIGN.md §12).
func SetRequestTracingForced(on bool) { reqtrace.SetForced(on) }

// ValidateBlameSeries checks the aum_blame_* and aum_slo_burn_rate
// series of a Prometheus exposition against the blame taxonomy (the
// promcheck command's second pass).
func ValidateBlameSeries(r io.Reader) error { return reqtrace.ValidateBlameSeries(r) }

// The live serving gateway (DESIGN.md §13): an OpenAI-compatible HTTP
// front-end whose completions are produced by a simulated fleet under
// time-warp pacing — simulated time advances WarpFactor times wall
// time, and every token is released at the wall instant its simulated
// completion maps to.
type (
	// Gateway owns a live fleet session and serves the /v1 API from it
	// (NewGateway / ServeGateway).
	Gateway = gateway.Gateway
	// GatewayConfig parameterizes a Gateway (literal-struct form of
	// NewGateway's options).
	GatewayConfig = gateway.Config
	// GatewayOption configures NewGateway.
	GatewayOption = gateway.Option
	// HTTPError is the shared JSON error envelope every aum HTTP
	// endpoint answers errors with: {"error":{"type","message"}}.
	HTTPError = gateway.HTTPError
	// FleetSession is an open-ended fleet simulation stepped one
	// barrier at a time (NewFleetSession) — what a Gateway drives.
	FleetSession = cluster.Session
	// LiveSource is a thread-safe arrival source fed by live callers
	// instead of a synthetic generator (set FleetConfig.Source).
	LiveSource = trace.LiveSource
	// ArrivalSource is the request-source contract shared by the
	// synthetic generator and LiveSource.
	ArrivalSource = trace.Source
	// RequestListener receives per-request completion callbacks from a
	// RequestTracer (SetListener) — the gateway's resolution path.
	RequestListener = reqtrace.Listener
)

// Error envelope types, matching OpenAI's taxonomy where one exists.
const (
	ErrTypeInvalidRequest = gateway.ErrInvalidRequest
	ErrTypeNotFound       = gateway.ErrNotFound
	ErrTypeRateLimit      = gateway.ErrRateLimit
	ErrTypeOverloaded     = gateway.ErrOverloaded
	ErrTypeUnavailable    = gateway.ErrUnavailable
	ErrTypeMethod         = gateway.ErrMethod
)

// Simulated-latency response headers set by gateway completions.
const (
	HeaderSimulatedTTFT = gateway.HeaderTTFT
	HeaderSimulatedTPOT = gateway.HeaderTPOT
	HeaderWarpFactor    = gateway.HeaderWarp
)

// Gateway options for NewGateway. Each wraps the corresponding
// GatewayConfig field; zero values keep the documented defaults.
var (
	// WithGatewayFleet sets the fleet the gateway serves from.
	WithGatewayFleet = gateway.WithFleet
	// WithWarpFactor sets simulated seconds per wall-clock second.
	WithWarpFactor = gateway.WithWarpFactor
	// WithGatewayMaxTokens caps per-request completion length.
	WithGatewayMaxTokens = gateway.WithMaxTokens
	// WithGatewayDegradedBelow sets the readiness degradation threshold.
	WithGatewayDegradedBelow = gateway.WithDegradedBelow
	// WithGatewayTelemetry attaches the registry receiving the
	// aum_gateway_* series.
	WithGatewayTelemetry = gateway.WithTelemetry
)

// NewGateway validates the options, builds a fleet session around a
// live arrival source, and starts the time-warp driver. Mount
// (*Gateway).Handler on a server, and Stop to retrieve the fleet
// accounting.
func NewGateway(opts ...GatewayOption) (*Gateway, error) { return gateway.New(opts...) }

// NewGatewayFromConfig is the literal-struct form of NewGateway.
func NewGatewayFromConfig(cfg GatewayConfig) (*Gateway, error) { return gateway.NewFromConfig(cfg) }

// ServeGateway builds a gateway and serves its /v1 API on the
// listener until the listener closes — the one-call form of
// NewGateway + http.Serve.
func ServeGateway(ln net.Listener, opts ...GatewayOption) error {
	g, err := gateway.New(opts...)
	if err != nil {
		return err
	}
	defer g.Stop()
	return http.Serve(ln, g.Handler())
}

// NewFleetSession returns an open-ended fleet simulation: Step
// advances one barrier, Now reports the simulated time reached, and
// Finish closes the accounting window. Run is exactly NewFleetSession
// + HorizonS/BarrierS steps + Finish.
func NewFleetSession(cfg FleetConfig) (*FleetSession, error) { return cluster.NewSession(cfg) }

// NewLiveSource returns an empty live arrival source to wire into
// FleetConfig.Source (or WithSource).
func NewLiveSource() *LiveSource { return trace.NewLiveSource() }

// WriteHTTPError writes the shared JSON error envelope with the given
// status and error type.
func WriteHTTPError(w http.ResponseWriter, status int, typ, msg string) {
	gateway.WriteError(w, status, typ, msg)
}

// HTTPNotFound is the catch-all handler answering unknown routes with
// the shared 404 envelope instead of net/http's plain-text default.
func HTTPNotFound(w http.ResponseWriter, r *http.Request) { gateway.NotFound(w, r) }

// FleetDegraded reports whether the fleet-availability gauge in the
// snapshot has sunk below the threshold, with a human-readable reason
// — the single health source behind aumd's /v1/healthz and the
// gateway readiness probe. A threshold <= 0 disables degradation.
func FleetDegraded(s TelemetrySnapshot, below float64) (reason string, degraded bool) {
	return gateway.FleetDegraded(s, below)
}
