// Package gateway is the live serving front-end (DESIGN.md §13): an
// OpenAI-compatible HTTP API whose requests are served by a simulated
// fleet instead of GPUs. Each POST /v1/chat/completions is injected
// into a continuously-advancing cluster.Session through a
// trace.LiveSource, resolved by a reqtrace completion listener, and
// released to the client on the emulated schedule through a time-warp
// pacing layer: simulated time advances WarpFactor times wall time,
// completed tokens are buffered, and each is written at the wall-clock
// instant its simulated completion time maps to. Response headers echo
// the simulated TTFT/TPOT, and serve.Admission sheds map onto HTTP 429
// with Retry-After.
//
// The offline paths are untouched: the gateway drives the same barrier
// loop Run does, with the synthetic generator swapped for the live
// source — pacing wraps the simulation, it never reaches inside it.
package gateway

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"aum/internal/cluster"
	"aum/internal/llm"
	"aum/internal/reqtrace"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/vcfg"
)

// Config parameterizes a gateway. The zero value of every field
// selects a documented default; withDefaults rejects out-of-range
// values with errors that name the field and the legal range.
type Config struct {
	// Fleet is the cluster the gateway serves from. Its Source and
	// ReqTrace fields are owned by the gateway (it installs the live
	// arrival source and the completion-listener tracer); HorizonS only
	// sizes the accounting window if Stop is called early.
	Fleet cluster.Config
	// WarpFactor is how many simulated seconds advance per wall-clock
	// second (default 1: real time). 100 serves a 5 s simulated
	// completion in 50 ms of wall time.
	WarpFactor float64
	// MaxTokens caps a request's max_tokens (default 256). Requests
	// that omit max_tokens get DefaultTokens.
	MaxTokens int
	// DefaultTokens is the completion length when the request does not
	// set max_tokens (default 32).
	DefaultTokens int
	// MaxPromptTokens caps the estimated prompt length (default 4096).
	MaxPromptTokens int
	// DegradedBelow is the fleet-availability threshold under which the
	// readiness probe reports degraded (<= 0 disables, the aumd
	// -degraded-below contract).
	DegradedBelow float64
	// Telemetry receives the aum_gateway_* series (and is wired through
	// the fleet when Fleet.Telemetry is unset). Defaults to a fresh
	// registry.
	Telemetry *telemetry.Registry
}

// Option mutates a Config under construction; see New.
type Option func(*Config)

// WithFleet sets the fleet the gateway serves from.
func WithFleet(fc cluster.Config) Option { return func(c *Config) { c.Fleet = fc } }

// WithWarpFactor sets simulated seconds per wall second.
func WithWarpFactor(f float64) Option { return func(c *Config) { c.WarpFactor = f } }

// WithMaxTokens caps per-request completion length.
func WithMaxTokens(n int) Option { return func(c *Config) { c.MaxTokens = n } }

// WithDegradedBelow sets the readiness degradation threshold.
func WithDegradedBelow(f float64) Option { return func(c *Config) { c.DegradedBelow = f } }

// WithTelemetry attaches the registry receiving aum_gateway_* series.
func WithTelemetry(reg *telemetry.Registry) Option { return func(c *Config) { c.Telemetry = reg } }

func (c Config) withDefaults() (Config, error) {
	const pkg = "gateway"
	if c.WarpFactor < 0 {
		return c, vcfg.Bad(pkg, "Config.WarpFactor", c.WarpFactor, "> 0 (0 selects 1: real time)")
	}
	if c.WarpFactor == 0 {
		c.WarpFactor = 1
	}
	if c.MaxTokens < 0 {
		return c, vcfg.Bad(pkg, "Config.MaxTokens", c.MaxTokens, ">= 0 (0 selects 256)")
	}
	if c.MaxTokens == 0 {
		c.MaxTokens = 256
	}
	if c.DefaultTokens < 0 || c.DefaultTokens > c.MaxTokens {
		return c, vcfg.Bad(pkg, "Config.DefaultTokens", c.DefaultTokens, "in [0, MaxTokens] (0 selects 32)")
	}
	if c.DefaultTokens == 0 {
		c.DefaultTokens = min(32, c.MaxTokens)
	}
	if c.MaxPromptTokens < 0 {
		return c, vcfg.Bad(pkg, "Config.MaxPromptTokens", c.MaxPromptTokens, ">= 0 (0 selects 4096)")
	}
	if c.MaxPromptTokens == 0 {
		c.MaxPromptTokens = 4096
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.NewRegistry()
	}
	if c.Fleet.Telemetry == nil {
		c.Fleet.Telemetry = c.Telemetry
	}
	return c, nil
}

// event is one completion-listener callback, queued toward the HTTP
// handler that owns the request.
type event struct {
	simT   float64
	tokens int // running decode-token count (OnToken only)
}

// liveReq is the handler side of one in-flight HTTP request.
type liveReq struct {
	id      int
	tid     uint64
	arrival float64
	// tokens carries first-token and per-token events; outcome carries
	// the single terminal event. Both are buffered so the simulation
	// never blocks on a slow client: tokens has room for every possible
	// token, outcome fires exactly once.
	tokens  chan event
	outcome chan outcomeEvent
}

type outcomeEvent struct {
	simT    float64
	outcome string // done | shed | timeout | dropped | failed
}

// Gateway owns a live fleet session, the arrival source feeding it,
// and the pacing clock mapping simulated completions to wall time.
type Gateway struct {
	cfg      Config
	served   llm.Model
	barrierS float64
	warp     float64

	src  *trace.LiveSource
	sess *cluster.Session
	reg  *telemetry.Registry
	rt   *reqtrace.Tracer

	mu       sync.Mutex
	inflight map[uint64]*liveReq

	startWall  time.Time
	simNowBits atomic.Uint64
	ready      atomic.Bool
	failure    atomic.Value // error from a failed Step
	stop       chan struct{}
	done       chan struct{}
	nudge      chan struct{} // poked by Submit: wakes an idle driver
	stopOnce   sync.Once

	gInflight *telemetry.Gauge
	gWarp     *telemetry.Gauge
	gLag      *telemetry.Gauge
	cRequests *telemetry.Counter
	cShed     *telemetry.Counter
	cTokens   *telemetry.Counter
}

// New validates the config, builds the fleet session around a live
// arrival source, and starts the time-warped barrier driver. Stop
// shuts the driver down and returns the fleet accounting.
func New(opts ...Option) (*Gateway, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return NewFromConfig(cfg)
}

// NewFromConfig is the literal-struct form of New.
func NewFromConfig(cfg Config) (*Gateway, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		warp:     cfg.WarpFactor,
		src:      trace.NewLiveSource(),
		reg:      cfg.Telemetry,
		inflight: make(map[uint64]*liveReq),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		nudge:    make(chan struct{}, 1),

		gInflight: cfg.Telemetry.Gauge("aum_gateway_inflight"),
		gWarp:     cfg.Telemetry.Gauge("aum_gateway_warp_ratio"),
		gLag:      cfg.Telemetry.Gauge("aum_gateway_paced_release_lag_seconds"),
		cRequests: cfg.Telemetry.Counter("aum_gateway_requests_total"),
		cShed:     cfg.Telemetry.Counter("aum_gateway_shed_total"),
		cTokens:   cfg.Telemetry.Counter("aum_gateway_tokens_released_total"),
	}
	// The gateway owns the tracer: every request is sampled (the
	// default) so the completion listener sees every span.
	g.rt = reqtrace.New(reqtrace.Config{Telemetry: cfg.Telemetry})
	g.rt.SetListener(g)

	fc := cfg.Fleet
	fc.Source = g.src
	fc.ReqTrace = g.rt
	sess, err := cluster.NewSession(fc)
	if err != nil {
		return nil, err
	}
	g.sess = sess
	g.served = sess.Config().Model
	g.barrierS = sess.Config().BarrierS
	g.startWall = time.Now()
	go g.drive()
	return g, nil
}

// Registry returns the registry carrying the aum_gateway_* (and fleet)
// series.
func (g *Gateway) Registry() *telemetry.Registry { return g.reg }

// Tracer returns the per-request causal tracer behind the gateway.
func (g *Gateway) Tracer() *reqtrace.Tracer { return g.rt }

// Model returns the model the fleet serves.
func (g *Gateway) Model() llm.Model { return g.served }

// Ready reports whether the fleet has completed its first barrier —
// before that no request can be admitted, so readiness is 503.
func (g *Gateway) Ready() bool { return g.ready.Load() }

// Now returns the simulated time the fleet has reached.
func (g *Gateway) Now() float64 {
	return math.Float64frombits(g.simNowBits.Load())
}

// Stop halts the barrier driver and closes the fleet accounting
// window. Safe to call once; in-flight handlers resolve with 503.
func (g *Gateway) Stop() (cluster.Result, error) {
	g.stopOnce.Do(func() { close(g.stop) })
	<-g.done
	if err, ok := g.failure.Load().(error); ok && err != nil {
		return cluster.Result{}, err
	}
	return g.sess.Finish()
}

// drive is the time-warp pacing loop. The fleet clock must never lead
// warp * wall-elapsed (completions are computed from arrival stamps
// against that clock), so the driver sleeps toward the warped wall
// instant of the next barrier the event core must execute: one
// interval ahead while work is in flight, the barrier observing the
// next scheduled event while the fleet is coasting, and indefinitely
// (+Inf) when nothing is scheduled — in which case only a Submit
// nudge or Stop wakes it. On wake it catches the session up to the
// warped clock with StepUntil; the event core turns the inert barriers
// in between into cheap pulses, so a long-idle session
// catches up in microseconds instead of running every barrier's fleet
// scan. Token release order is unchanged: releases are paced by the
// handlers (pace) from simulated timestamps, which this loop only
// ever produces at or behind their warped wall instants.
func (g *Gateway) drive() {
	defer close(g.done)
	// Catch-up runs in bounded strides so Stop stays responsive while
	// a long-elided span is replayed.
	const maxStride = 64
	for {
		next := g.sess.NextEventAt() + g.barrierS
		if !g.ready.Load() {
			// The first barrier always executes on the plain cadence:
			// readiness (and the 503 window before it) is pinned to it.
			next = g.sess.Now() + g.barrierS
		}
		if math.IsInf(next, 1) {
			// Fully idle and nothing scheduled: sleep until a request
			// arrives.
			select {
			case <-g.stop:
				return
			case <-g.nudge:
			}
		} else if d := time.Until(g.wallAt(next)); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-g.stop:
				t.Stop()
				return
			case <-g.nudge:
				// A new arrival may precede the scheduled bound;
				// recompute against the warped clock below.
				t.Stop()
			case <-t.C:
			}
		}
		select {
		case <-g.stop:
			return
		default:
		}
		target := g.warpedSimNow()
		for g.sess.Now() < target-1e-9 {
			stride := math.Min(target, g.sess.Now()+maxStride*g.barrierS)
			if err := g.sess.StepUntil(stride); err != nil {
				g.failure.Store(fmt.Errorf("gateway: fleet step: %w", err))
				return
			}
			g.simNowBits.Store(math.Float64bits(g.sess.Now()))
			g.ready.Store(true)
			select {
			case <-g.stop:
				return
			default:
			}
		}
		if wallS := time.Since(g.startWall).Seconds(); wallS > 0 {
			g.gWarp.Set(g.sess.Now() / wallS)
		}
	}
}

// warpedSimNow is the simulated time wall-clock progress has earned:
// warp * wall-elapsed. The fleet clock trails it, never leads it, and
// live arrivals are stamped against it so an idle (elided) span does
// not distort a request's arrival time.
func (g *Gateway) warpedSimNow() float64 {
	return time.Since(g.startWall).Seconds() * g.warp
}

// wallAt maps a simulated instant to its wall-clock release time:
// startWall + simT/warp.
func (g *Gateway) wallAt(simT float64) time.Time {
	return g.startWall.Add(time.Duration(simT / g.warp * float64(time.Second)))
}

// admit injects one request into the live source and registers its
// handler-side channels, atomically with respect to the completion
// listener — no callback can observe the request unregistered.
func (g *Gateway) admit(promptLen, maxTokens int) *liveReq {
	lr := &liveReq{
		tokens:  make(chan event, maxTokens+4),
		outcome: make(chan outcomeEvent, 1),
	}
	g.mu.Lock()
	// Stamp the arrival against the warped wall clock, not the fleet
	// frontier: during an elided idle span the fleet clock is parked,
	// and stamping there would backdate the request by the whole span.
	lr.id, lr.arrival = g.src.Submit(g.warpedSimNow(), promptLen, maxTokens)
	lr.tid = reqtrace.MakeTraceID(0, lr.id)
	g.inflight[lr.tid] = lr
	g.gInflight.Set(float64(len(g.inflight)))
	g.mu.Unlock()
	g.cRequests.Inc()
	// Wake the driver: it may be sleeping far past this arrival's
	// barrier.
	select {
	case g.nudge <- struct{}{}:
	default:
	}
	return lr
}

// drop deregisters a request; later callbacks for it are discarded.
func (g *Gateway) drop(tid uint64) {
	g.mu.Lock()
	delete(g.inflight, tid)
	g.gInflight.Set(float64(len(g.inflight)))
	g.mu.Unlock()
}

func (g *Gateway) lookup(tid uint64) *liveReq {
	g.mu.Lock()
	lr := g.inflight[tid]
	g.mu.Unlock()
	return lr
}

// OnFirstToken implements reqtrace.Listener: the TTFT endpoint.
func (g *Gateway) OnFirstToken(tid uint64, simNow float64) {
	if lr := g.lookup(tid); lr != nil {
		select {
		case lr.tokens <- event{simT: simNow}:
		default: // never blocks the simulation
		}
	}
}

// OnToken implements reqtrace.Listener: one decode token completed.
func (g *Gateway) OnToken(tid uint64, simNow float64, tokens int) {
	if lr := g.lookup(tid); lr != nil {
		select {
		case lr.tokens <- event{simT: simNow, tokens: tokens}:
		default:
		}
	}
}

// OnOutcome implements reqtrace.Listener: the request left the live
// set. Fires after every token callback for the request, so by the
// time the handler reads it the token channel holds the full stream.
func (g *Gateway) OnOutcome(tid uint64, simNow float64, outcome string) {
	if lr := g.lookup(tid); lr != nil {
		select {
		case lr.outcome <- outcomeEvent{simT: simNow, outcome: outcome}:
		default:
		}
	}
}
