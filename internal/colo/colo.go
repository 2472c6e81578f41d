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
	DT       float64 // time step (default 1 ms)
	Seed     uint64
	RatePerS float64 // arrival-rate override (0 = scenario default)

	// Trace, when set, replays a recorded request stream instead of
	// generating arrivals, pinning identical inputs across managers.
	Trace *trace.Recorded

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
	if c.RatePerS < 0 {
		return c, vcfg.Bad(pkg, "Config.RatePerS", c.RatePerS, ">= 0 (0 selects the scenario default)")
	}
	if c.Seed == 0 {
		c.Seed = 42
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
	TimedOut       int // requests dropped past their queue deadline
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
	slo      serve.SLO
	interval float64
	nextAt   float64
	openAt   float64 // start of the current violated span, -1 when none
	windows  []ViolationWindow
	vStreak  int     // consecutive violated samples while no window is open
	cStreak  int     // consecutive compliant samples while a window is open
	edgeAt   float64 // time of the first sample of the current streak

	prevReq     int
	prevTTFTSum float64
	prevTok     float64
	prevTPOTSum float64
}

func newViolationMonitor(slo serve.SLO, startAt float64) *violationMonitor {
	return &violationMonitor{slo: slo, interval: 0.25, nextAt: startAt, openAt: -1}
}

func (v *violationMonitor) observe(now, headWait float64, st *serve.Stats) {
	if now < v.nextAt {
		return
	}
	v.nextAt += v.interval
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

// arrivalSource is the request stream the run loop consumes — a live
// trace.Generator or a pinned trace.Replayer. NextEventAt lets the loop
// compute a fast-forward skip horizon (DESIGN.md §9): Emit returns
// nothing while now+dt stays strictly below the reported time.
type arrivalSource interface {
	Emit(now, dt float64) []*serve.Request
	NextEventAt(now float64) float64
}

// Run executes one co-location experiment.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}
	m := machine.New(cfg.Plat)
	m.SetTelemetry(cfg.Telemetry)
	if cfg.TraceSink != nil {
		cfg.TraceSink.SetProcessName(telemetry.PIDServe, "serving engine")
		cfg.TraceSink.SetProcessName(telemetry.PIDMachine, "machine")
	}

	rt := cfg.ReqTrace
	if rt == nil && reqtrace.Forced() {
		rt = reqtrace.New(reqtrace.Config{})
	}
	eng := serve.NewEngine(serve.Config{Model: cfg.Model, SLO: cfg.Scen.SLO, Admission: cfg.Admission,
		Telemetry: cfg.Telemetry, Trace: cfg.TraceSink, ReqTrace: rt})
	// submit stamps a trace ID before handing the request to the engine.
	// Chaos bursts use negative IDs; MakeTraceID folds both sign ranges
	// into distinct nonzero IDs.
	submit := eng.Submit
	if rt != nil {
		submit = func(r *serve.Request) error {
			r.TraceID = reqtrace.MakeTraceID(0, r.ID)
			return eng.Submit(r)
		}
	}
	var src arrivalSource
	if cfg.Trace != nil {
		src = trace.NewReplayer(cfg.Trace)
	} else {
		gen := trace.NewGenerator(cfg.Scen, cfg.Seed)
		if cfg.RatePerS > 0 {
			gen.SetRate(cfg.RatePerS)
		}
		src = gen
	}

	env := &Env{
		Plat:   cfg.Plat,
		M:      m,
		RDT:    rdt.New(m),
		Engine: eng,
		Scen:   cfg.Scen,
	}
	env.RDT.SetTelemetry(cfg.Telemetry)
	gamma := 0.0
	if cfg.BE != nil {
		env.BEApp = workload.New(*cfg.BE, cfg.Seed+7)
		gamma = cfg.BE.RevenuePrice
	}
	if err := cfg.Manager.Setup(env); err != nil {
		return Result{}, fmt.Errorf("colo: %s setup: %w", cfg.Manager.Name(), err)
	}
	if env.PrefillID == 0 || env.DecodeID == 0 {
		return Result{}, fmt.Errorf("colo: %s setup did not place the LLM workers", cfg.Manager.Name())
	}

	var inj *chaos.Injector
	if cfg.Chaos != nil {
		var err error
		inj, err = chaos.NewInjector(*cfg.Chaos, chaos.Target{M: m, BE: env.BEApp, Scen: cfg.Scen})
		if err != nil {
			return Result{}, err
		}
		inj.SetTelemetry(cfg.Telemetry)
	}
	sloMon := newViolationMonitor(cfg.Scen.SLO, cfg.WarmupS)

	interval := cfg.Manager.Interval()
	nextTick := interval
	var alloc []AllocSample

	// Per-tick serving gauges, refreshed just before the manager's Tick
	// so status renderers and /metrics scrapes see the same inputs the
	// controller acted on. Handles are nil-safe no-ops when telemetry
	// is off.
	gQueueLen := cfg.Telemetry.Gauge("aum_serve_queue_len")
	gDecodeBatch := cfg.Telemetry.Gauge("aum_serve_decode_batch")
	gHeadWait := cfg.Telemetry.Gauge("aum_serve_head_wait_seconds")

	var basePrefill, baseDecode, baseBE machine.TaskStats
	baseEnergy, baseTime := 0.0, 0.0
	measured := false

	snapshot := func() {
		basePrefill, _ = m.Stats(env.PrefillID)
		baseDecode, _ = m.Stats(env.DecodeID)
		if env.BEID != 0 {
			baseBE, _ = m.Stats(env.BEID)
		}
		baseEnergy = m.EnergyJ()
		baseTime = m.Now()
	}
	var baseStats serve.Stats

	// ffOn gates the skip-horizon computation; it is hoisted because the
	// toggle is process-global and never changes mid-run in practice.
	ffOn := machine.FastForward()
	// Managers that export their decision cadence (core.AUM) tighten
	// the skip horizon through the shared event-source contract; for
	// the rest, the loop's own nextTick bound below is authoritative.
	mgrEv, _ := cfg.Manager.(interface{ NextEventAt(float64) float64 })
	for m.Now() < cfg.HorizonS {
		now := m.Now()
		for _, r := range src.Emit(now, cfg.DT) {
			if err := submit(r); err != nil {
				return Result{}, err
			}
		}
		if inj != nil {
			if err := inj.Advance(now, submit); err != nil {
				return Result{}, err
			}
		}
		if now >= sloMon.nextAt {
			sloMon.observe(now, eng.HeadWait(now), eng.Stats())
			// Fold finished request traces at the monitor cadence; the
			// loop is single-threaded, so the fold is deterministic.
			rt.Publish()
		}
		if interval > 0 && now >= nextTick {
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
			if err := cfg.Manager.Tick(env, now); err != nil {
				return Result{}, fmt.Errorf("colo: %s tick: %w", cfg.Manager.Name(), err)
			}
			nextTick += interval
			if cfg.TrackAlloc && env.BEID != 0 {
				p, _ := m.Placement(env.BEID)
				ways, _ := env.RDT.Ways(p.COS)
				mba, _ := env.RDT.MBA(p.COS)
				alloc = append(alloc, AllocSample{
					Now: now, BEWays: ways.Count(), BEMBA: mba, BECores: p.Cores(),
				})
			}
		}
		if !measured && now >= cfg.WarmupS {
			snapshot()
			baseStats = eng.Stats().Clone()
			measured = true
		}
		// Skip horizon (DESIGN.md §9): between this tick and the next
		// loop-level event — arrival, chaos fault, SLO sample, manager
		// tick, warmup snapshot, horizon — no per-tick guard above can
		// fire, so the machine may replay quiescent steps back to back.
		// The machine still re-checks quiescence every tick; this only
		// batches the loop bookkeeping.
		k := 1
		if ffOn {
			stop := cfg.HorizonS
			// Emit's guard fires at nextAt <= now+dt, so the last safe
			// tick start is one dt before the arrival.
			if t := src.NextEventAt(now) - cfg.DT; t < stop {
				stop = t
			}
			if inj != nil {
				if t := inj.NextEventAt(now); t < stop {
					stop = t
				}
			}
			if sloMon.nextAt < stop {
				stop = sloMon.nextAt
			}
			if interval > 0 && nextTick < stop {
				stop = nextTick
			}
			if mgrEv != nil {
				if t := mgrEv.NextEventAt(now); t < stop {
					stop = t
				}
			}
			if !measured && cfg.WarmupS < stop {
				stop = cfg.WarmupS
			}
			// Half-a-tick safety margin absorbs the ~1-ulp drift between
			// the accumulated clock and event times computed arithmetically.
			if n := int((stop-now)/cfg.DT - 0.5); n > 1 {
				k = n
			}
		}
		m.StepN(cfg.DT, k)
	}
	if !measured {
		snapshot()
		baseStats = eng.Stats().Clone()
	}
	rt.Publish()
	// Only an explicitly configured tracer exports spans into the Chrome
	// trace: the forced-mode fallback tracer must stay invisible so the
	// neutrality proof covers byte-identical trace files too.
	if cfg.ReqTrace != nil {
		cfg.ReqTrace.ExportChrome(cfg.TraceSink)
	}

	elapsed := m.Now() - baseTime
	if elapsed <= 0 {
		elapsed = cfg.DT
	}
	curPrefill, _ := m.Stats(env.PrefillID)
	curDecode, _ := m.Stats(env.DecodeID)
	dPrefill := curPrefill.Sub(basePrefill)
	dDecode := curDecode.Sub(baseDecode)
	var dBE machine.TaskStats
	if env.BEID != 0 {
		cur, _ := m.Stats(env.BEID)
		dBE = cur.Sub(baseBE)
	}
	st := eng.Stats()

	prices := metrics.DefaultPrices(gamma)
	rawH := (st.PrefillTokens - baseStats.PrefillTokens) / elapsed
	rawL := (st.DecodeTokens - baseStats.DecodeTokens) / elapsed
	perfH := (st.GuaranteedPrefillTokens - baseStats.GuaranteedPrefillTokens) / elapsed
	perfL := (st.TPOTMet - baseStats.TPOTMet) / elapsed
	reqPS := float64(st.PrefillRequests-baseStats.PrefillRequests) / elapsed
	perfN := dBE.Work / elapsed
	watts := (m.EnergyJ() - baseEnergy) / elapsed

	coRunner := "none"
	if cfg.BE != nil {
		coRunner = cfg.BE.Name
	}
	res := Result{
		Scheme:   cfg.Manager.Name(),
		Scenario: cfg.Scen.Name,
		CoRunner: coRunner,
		Platform: cfg.Plat.Name,

		PerfH: perfH, PerfL: perfL,
		RawPerfH: rawH, RawPerfL: rawL,
		RequestsPS: reqPS,
		PerfN:      perfN,
		Watts:      watts,
		Eff:        metrics.Efficiency(prices, perfH, perfL, perfN, watts),

		TTFTGuarantee:       guaranteeDelta(float64(st.TTFTMet-baseStats.TTFTMet), float64(st.PrefillRequests-baseStats.PrefillRequests)),
		TTFTGuaranteeScaled: guaranteeDelta(float64(st.TTFTMetScaled-baseStats.TTFTMetScaled), float64(st.PrefillRequests-baseStats.PrefillRequests)),
		TPOTGuarantee:       guaranteeDelta(st.TPOTMet-baseStats.TPOTMet, st.DecodeTokens-baseStats.DecodeTokens),
		MeanTTFT:            meanDelta(st.TTFTSum-baseStats.TTFTSum, float64(st.PrefillRequests-baseStats.PrefillRequests)),
		MeanTPOT:            meanDelta(st.TPOTSum-baseStats.TPOTSum, st.DecodeTokens-baseStats.DecodeTokens),
		TailTPOT:            st.TailTPOT(90),
		TailTTFT:            st.TailTTFT(90),
		GoodTokensPS:        (st.GuaranteedTokens - baseStats.GuaranteedTokens) / elapsed,

		MeanGHzPrefill: dPrefill.MeanGHz(),
		MeanGHzDecode:  dDecode.MeanGHz(),
		MeanGHzBE:      dBE.MeanGHz(),

		PrefillStats: dPrefill,
		DecodeStats:  dDecode,
		BEStats:      dBE,

		Alloc:  alloc,
		Prices: prices,

		Rejected:       st.Rejected - baseStats.Rejected,
		TimedOut:       st.TimedOut - baseStats.TimedOut,
		BacklogDropped: st.BacklogDropped - baseStats.BacklogDropped,
		RecoveryS:      -1,
	}
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
