// Package colo runs co-location experiments: an LLM serving engine
// (prefill + decode workers) and an optional best-effort co-runner on
// one simulated machine, under the control of a resource manager. It is
// the shared harness behind every evaluation scheme in Table V — the
// exclusive baseline, the AUV-oblivious sharing baselines, AUM, and
// AUM's single-dimension ablations.
package colo

import (
	"fmt"

	"aum/internal/chaos"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/metrics"
	"aum/internal/platform"
	"aum/internal/rdt"
	"aum/internal/reqtrace"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/vcfg"
	"aum/internal/workload"
)

// Env is the live experiment environment a Manager controls.
type Env struct {
	Plat   platform.Platform
	M      *machine.Machine
	RDT    *rdt.Controller
	Engine *serve.Engine
	Scen   trace.Scenario

	PrefillID machine.TaskID
	DecodeID  machine.TaskID
	BEID      machine.TaskID // zero when running exclusively
	BEApp     *workload.App  // nil when running exclusively
}

// HasBE reports whether a co-runner is present.
func (e *Env) HasBE() bool { return e.BEApp != nil }

// AddLLM places the two serving workers on the machine. Managers call
// this exactly once from Setup.
func (e *Env) AddLLM(prefill, decode machine.Placement) error {
	id, err := e.M.AddTask(e.Engine.PrefillWorker(), prefill)
	if err != nil {
		return fmt.Errorf("colo: placing prefill: %w", err)
	}
	e.PrefillID = id
	id, err = e.M.AddTask(e.Engine.DecodeWorker(), decode)
	if err != nil {
		return fmt.Errorf("colo: placing decode: %w", err)
	}
	e.DecodeID = id
	return nil
}

// AddBE places the co-runner, if one is configured. Managers call this
// from Setup after AddLLM; it is a no-op in exclusive runs.
func (e *Env) AddBE(p machine.Placement) error {
	if e.BEApp == nil {
		return nil
	}
	id, err := e.M.AddTask(e.BEApp, p)
	if err != nil {
		return fmt.Errorf("colo: placing co-runner: %w", err)
	}
	e.BEID = id
	return nil
}

// Manager is a resource management scheme (Table V).
type Manager interface {
	// Name is the scheme name used in reports (e.g. "AUM", "SMT-AU").
	Name() string
	// Setup places the tasks and configures initial resources.
	Setup(e *Env) error
	// Interval is the control period in seconds; 0 disables ticks.
	Interval() float64
	// Tick runs one control decision at simulation time now.
	Tick(e *Env, now float64) error
}

// Config parameterizes one co-location run.
type Config struct {
	Plat    platform.Platform
	Model   llm.Model
	Scen    trace.Scenario
	BE      *workload.Profile // nil = exclusive AU usage
	Manager Manager

	HorizonS float64 // simulated duration (default 60)
	WarmupS  float64 // excluded from measurements (default HorizonS/6)
	Seed     uint64
	RatePerS float64 // arrival-rate override (0 = scenario default)

	// TrackAlloc records the co-runner's way/MBA allocation at every
	// control tick (Figure 18).
	TrackAlloc bool

	// Chaos, when set, injects the fault schedule into the run and
	// turns on SLO violation-window tracking in the Result.
	Chaos *chaos.Schedule

	// Admission is the serving engine's overload policy (zero value =
	// the paper's unbounded scheduler).
	Admission serve.Admission

	// Telemetry, when set, is wired through the whole stack: the engine
	// records latency histograms, the machine exports power/bandwidth
	// gauges, RDT logs regrants, chaos tags faults, and the run itself
	// publishes per-tick queue/batch gauges. Telemetry never feeds back
	// into control decisions, so enabling it cannot change results.
	Telemetry *telemetry.Registry

	// TraceSink, when set, collects Chrome trace_event spans (request
	// lifecycles, division phases, per-tick counter tracks).
	TraceSink *telemetry.Trace

	// ReqTrace, when set, records per-request causal traces and blame
	// vectors (package reqtrace). Observation-only: enabling it never
	// changes results.
	ReqTrace *reqtrace.Tracer
}

func (c Config) withDefaults() (Config, error) {
	const pkg = "colo"
	if c.Plat.Cores <= 0 {
		return c, vcfg.Bad(pkg, "Config.Plat", c.Plat.Name, "a platform with cores (platform.GenA() etc.)")
	}
	if c.Manager == nil {
		return c, vcfg.Bad(pkg, "Config.Manager", nil, "a Manager (e.g. manager.AllAU{})")
	}
	if c.HorizonS < 0 {
		return c, vcfg.Bad(pkg, "Config.HorizonS", c.HorizonS, "> 0 (0 selects the 60 s default)")
	}
	if c.HorizonS == 0 {
		c.HorizonS = 60
	}
	if c.HorizonS < machine.DT {
		return c, vcfg.Bad(pkg, "Config.HorizonS", c.HorizonS, ">= machine.DT (one 1 ms step)")
	}
	if c.WarmupS < 0 || c.WarmupS >= c.HorizonS {
		return c, vcfg.Bad(pkg, "Config.WarmupS", c.WarmupS, "in [0, HorizonS) (0 selects HorizonS/6)")
	}
	if c.WarmupS == 0 {
		c.WarmupS = c.HorizonS / 6
	}
	if c.RatePerS < 0 {
		return c, vcfg.Bad(pkg, "Config.RatePerS", c.RatePerS, ">= 0 (0 selects the scenario default)")
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Admission.MaxQueue < 0 {
		return c, vcfg.Bad(pkg, "Config.Admission.MaxQueue", c.Admission.MaxQueue, ">= 0 (0 = unbounded)")
	}
	return c, nil
}

// AllocSample is one Figure 18 observation of the shared application's
// allocation.
type AllocSample struct {
	Now     float64
	BEWays  int
	BEMBA   int // percent
	BECores int
}

// Result summarizes one run. Performance figures are post-warmup rates.
type Result struct {
	Scheme   string
	Scenario string
	CoRunner string
	Platform string

	// PerfH and PerfL are the paper's throughput metric: tokens per
	// second *with performance guarantees* — P_H counts the prompt
	// tokens of requests whose first token met the TTFT SLO, P_L the
	// decode tokens meeting TPOT. RawPerfH/RawPerfL are the
	// unconditional processing rates.
	PerfH    float64
	PerfL    float64
	RawPerfH float64
	RawPerfL float64
	// RequestsPS is the prefill completion rate in requests/s.
	RequestsPS float64
	PerfN      float64 // co-runner work units/s
	Watts      float64
	Eff        float64 // weighted perf-per-watt under Prices

	TTFTGuarantee       float64 // vs the absolute d_TTFT (the paper's strict reading)
	TTFTGuaranteeScaled float64 // vs the size-scaled deadline (drives PerfH)
	TPOTGuarantee       float64
	MeanTTFT            float64
	MeanTPOT            float64
	TailTPOT            float64 // p90
	TailTTFT            float64 // p90
	GoodTokensPS        float64 // tokens within SLO per second

	MeanGHzPrefill float64
	MeanGHzDecode  float64
	MeanGHzBE      float64

	PrefillStats machine.TaskStats
	DecodeStats  machine.TaskStats
	BEStats      machine.TaskStats

	Alloc []AllocSample

	Prices metrics.Prices

	// Robustness accounting (populated when Config.Chaos is set; the
	// admission counters are post-warmup deltas and filled regardless).
	ChaosEvents []chaos.Applied   // injected faults and their reverts
	Violations  []ViolationWindow // contiguous spans of SLO violation
	ViolationS  float64           // violated seconds after the first fault
	// RecoveryS is the time from the first fault to the end of the
	// last violation window — how long the system took to re-enter
	// sustained SLO compliance. -1 when it never recovered (or no
	// chaos was injected); Recovered distinguishes the two.
	RecoveryS float64
	Recovered bool

	Rejected       int // requests shed at admission
	BacklogDropped int // prefilled requests shed at the decode backlog
}

// ViolationWindow is one contiguous span of measured SLO violation.
type ViolationWindow struct {
	Start, End float64
}

// violationMonitor samples the engine at a fixed cadence and merges
// violated samples into windows. Violation is judged on the *interval*
// — the mean TTFT/TPOT of completions since the previous sample, with
// the soft margins the controller uses (1.3x TTFT, 1.1x TPOT) — plus
// the head-of-line wait, which catches a stalled queue that completes
// nothing at all. Interval deltas, not the engine's sliding-window
// tails, because those windows span thousands of samples and would
// keep reporting an incident long after behaviour recovered.
//
// Both edges are debounced by one sample: a window opens only after two
// consecutive violated samples (backdated to the first) and closes only
// after two consecutive compliant ones (ended at the first). A single
// slow completion or one clean interval mid-incident is measurement
// noise, not a state change.
type violationMonitor struct {
	slo     serve.SLO
	nextAt  int64   // tick of the next sample
	openAt  float64 // start of the current violated span, -1 when none
	windows []ViolationWindow
	vStreak int     // consecutive violated samples while no window is open
	cStreak int     // consecutive compliant samples while a window is open
	edgeAt  float64 // time of the first sample of the current streak

	prevReq     int
	prevTTFTSum float64
	prevTok     float64
	prevTPOTSum float64
}

func newViolationMonitor(slo serve.SLO, startAt int64) *violationMonitor {
	return &violationMonitor{slo: slo, nextAt: startAt, openAt: -1}
}

// observe takes the sample due now; the caller keeps the cadence.
func (v *violationMonitor) observe(now, headWait float64, st *serve.Stats) {
	v.nextAt += 250 // ticks: one sample per 0.25 s
	dReq := st.PrefillRequests - v.prevReq
	dTTFT := st.TTFTSum - v.prevTTFTSum
	dTok := st.DecodeTokens - v.prevTok
	dTPOT := st.TPOTSum - v.prevTPOTSum
	v.prevReq, v.prevTTFTSum = st.PrefillRequests, st.TTFTSum
	v.prevTok, v.prevTPOTSum = st.DecodeTokens, st.TPOTSum

	violated := headWait > v.slo.TTFT*1.3 ||
		(dReq > 0 && dTTFT/float64(dReq) > v.slo.TTFT*1.3) ||
		(dTok > 0 && dTPOT/dTok > v.slo.TPOT*1.1)
	if v.openAt < 0 {
		if !violated {
			v.vStreak = 0
			return
		}
		if v.vStreak == 0 {
			v.edgeAt = now
		}
		if v.vStreak++; v.vStreak >= 2 {
			v.openAt = v.edgeAt
			v.vStreak, v.cStreak = 0, 0
		}
		return
	}
	if violated {
		v.cStreak = 0
		return
	}
	if v.cStreak == 0 {
		v.edgeAt = now
	}
	if v.cStreak++; v.cStreak >= 2 {
		v.windows = append(v.windows, ViolationWindow{Start: v.openAt, End: v.edgeAt})
		v.openAt = -1
		v.vStreak, v.cStreak = 0, 0
	}
}

// finish closes any open window at the horizon and returns the list.
// stillOpen reports whether the run ended mid-violation.
func (v *violationMonitor) finish(horizon float64) (windows []ViolationWindow, stillOpen bool) {
	if v.openAt >= 0 {
		v.windows = append(v.windows, ViolationWindow{Start: v.openAt, End: horizon})
		return v.windows, true
	}
	return v.windows, false
}

// Run executes one co-location experiment.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	if cfg.TraceSink != nil {
		cfg.TraceSink.SetProcessName(telemetry.PIDServe, "serving engine")
		cfg.TraceSink.SetProcessName(telemetry.PIDMachine, "machine")
	}
	if cfg.ReqTrace == nil && reqtrace.Forced() {
		cfg.ReqTrace = reqtrace.New(reqtrace.Config{})
	}

	// Per-tick serving gauges, refreshed just before the manager's Tick
	// so status renderers and /metrics scrapes see the same inputs the
	// controller acted on. Handles are nil-safe no-ops when telemetry
	// is off.
	gQueueLen := cfg.Telemetry.Gauge("aum_serve_queue_len")
	gDecodeBatch := cfg.Telemetry.Gauge("aum_serve_decode_batch")
	gHeadWait := cfg.Telemetry.Gauge("aum_serve_head_wait_seconds")
	var alloc []AllocSample
	cfg.Manager = sampled{Manager: cfg.Manager,
		before: func(e *Env, now float64) {
			eng, m := e.Engine, e.M
			gQueueLen.Set(float64(eng.QueueLen()))
			gDecodeBatch.Set(float64(eng.DecodeBatch()))
			gHeadWait.Set(eng.HeadWait(now))
			if cfg.TraceSink != nil {
				cfg.TraceSink.CounterSample("serving", telemetry.PIDMachine, now, map[string]float64{
					"queue":        float64(eng.QueueLen()),
					"decode_batch": float64(eng.DecodeBatch()),
				})
				cfg.TraceSink.CounterSample("machine", telemetry.PIDMachine, now, map[string]float64{
					"watts":     m.LastWatts(),
					"link_util": m.LastLinkUtil(),
				})
			}
		},
		after: func(e *Env, now float64) {
			if cfg.TrackAlloc && e.BEID != 0 {
				p, _ := e.M.Placement(e.BEID)
				ways, _ := e.RDT.Ways(p.COS)
				mba, _ := e.RDT.MBA(p.COS)
				alloc = append(alloc, AllocSample{
					Now: now, BEWays: ways.Count(), BEMBA: mba, BECores: p.Cores(),
				})
			}
		},
	}
	n, err := NewNode(cfg, cfg.Seed+7, 0, nil)
	if err != nil {
		return Result{}, err
	}
	m, eng := n.M, n.Engine
	src := trace.NewGenerator(cfg.Scen, cfg.Seed)
	if cfg.RatePerS > 0 {
		src.SetRate(cfg.RatePerS)
	}
	var inj *chaos.Injector
	if cfg.Chaos != nil {
		inj, err = chaos.NewInjector(*cfg.Chaos, chaos.Target{M: m, BE: n.BEApp})
		if err != nil {
			return Result{}, err
		}
		inj.SetTelemetry(cfg.Telemetry)
	}
	sloMon := newViolationMonitor(cfg.Scen.SLO, n.warm)

	// The run's own events at tick t — generator arrivals, chaos
	// faults, the SLO sample — and the next tick at which one can fire.
	err = n.StepTo(machine.TickOf(cfg.HorizonS), func(t int64) (int64, error) {
		now := machine.Time(t)
		for _, r := range src.Emit(now, machine.DT) {
			if cfg.ReqTrace != nil {
				r.TraceID = reqtrace.MakeTraceID(0, r.ID)
			}
			if err := eng.Submit(r); err != nil {
				return 0, err
			}
		}
		if inj != nil {
			if err := inj.Advance(now); err != nil {
				return 0, err
			}
		}
		if t >= sloMon.nextAt {
			sloMon.observe(now, eng.HeadWait(now), eng.Stats())
			// Fold finished request traces at the monitor cadence; the
			// loop is single-threaded, so the fold is deterministic.
			cfg.ReqTrace.Publish()
		}
		// Emit's guard fires once an arrival is due by the tick's end,
		// so the arrival's own tick is one too late.
		next := min(machine.TickOf(src.NextEventAt())-1, sloMon.nextAt)
		if inj != nil {
			next = min(next, machine.TickOf(inj.NextEventAt()))
		}
		return next, nil
	})
	if err != nil {
		return Result{}, err
	}
	cfg.ReqTrace.Publish()

	// The window opens at the warmup tick: StepTo stops there.
	elapsed := m.Now() - machine.Time(n.warm)
	if elapsed <= 0 {
		elapsed = machine.DT
	}
	res := n.Measure(elapsed)
	coRunner, gamma := "none", 0.0
	if cfg.BE != nil {
		coRunner, gamma = cfg.BE.Name, cfg.BE.RevenuePrice
	}
	res.Scheme, res.Scenario, res.CoRunner, res.Platform = cfg.Manager.Name(), cfg.Scen.Name, coRunner, cfg.Plat.Name
	res.Prices = metrics.DefaultPrices(gamma)
	res.Eff = metrics.Efficiency(res.Prices, res.PerfH, res.PerfL, res.PerfN, res.Watts)
	res.TailTPOT, res.TailTTFT = eng.Stats().TailTPOT(90), eng.Stats().TailTTFT(90)
	res.Alloc, res.RecoveryS = alloc, -1
	windows, stillOpen := sloMon.finish(m.Now())
	res.Violations = windows
	if inj != nil {
		res.ChaosEvents = inj.Applied()
		if eventAt := cfg.Chaos.FirstAt(); eventAt >= 0 {
			// Violated seconds attributable to the incident: window
			// overlap with [first fault, horizon].
			last := 0.0
			for _, w := range windows {
				if w.End <= eventAt {
					continue
				}
				start := w.Start
				if start < eventAt {
					start = eventAt
				}
				res.ViolationS += w.End - start
				last = w.End - eventAt
			}
			if res.Recovered = !stillOpen; res.Recovered {
				res.RecoveryS = last
			}
		}
	}
	return res, nil
}

// sampled runs Run's per-decision samples around the manager's Tick:
// the serving gauges and Chrome counters the decision sees before it,
// the co-runner allocation (Figure 18) it leaves after it.
type sampled struct {
	Manager
	before, after func(e *Env, now float64)
}

func (s sampled) Tick(e *Env, now float64) error {
	s.before(e, now)
	if err := s.Manager.Tick(e, now); err != nil {
		return err
	}
	s.after(e, now)
	return nil
}

func guaranteeDelta(met, total float64) float64 {
	if total <= 0 {
		return 1
	}
	return met / total
}

func meanDelta(sum, n float64) float64 {
	if n <= 0 {
		return 0
	}
	return sum / n
}
