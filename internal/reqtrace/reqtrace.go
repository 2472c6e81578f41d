// Package reqtrace is the per-request causal tracer: a deterministic,
// nil-safe recorder of every request's lifecycle —
// arrival, admission or shed, queueing, prefill (with membw/throttle
// stall attribution), KV handoff, decode iterations,
// and retry/failover hops across machines — in simulated time only.
//
// On top of the span tree it runs a critical-path analyzer: every
// request's TTFT and decode time is decomposed into a *blame vector*
// over the categories below, conservation-checked so the components sum
// exactly to the measured latency. Fleet-wide blame tables and SLO
// burn-rate timelines aggregate the vectors (DESIGN.md §12).
//
// The determinism contract of DESIGN.md §6 extends here: tracing is
// observation only. Hooks never feed back into scheduling, every blame
// input is a pure function of state the simulation computes anyway, and
// fleet-level float aggregation happens only in single-threaded barrier
// code over records sorted by trace ID — so enabling tracing is
// byte-identical to disabling it at any worker width (pinned by
// TestRequestTracingDoesNotChangeResults).
package reqtrace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"aum/internal/telemetry"
)

// Category is one axis of the blame vector.
type Category int

const (
	// CatQueue is time spent waiting for a prefill slot.
	CatQueue Category = iota
	// CatCompute is iteration execution time that remains after the
	// membw and throttle counterfactuals — the pure compute floor.
	CatCompute
	// CatThrottle is execution time lost to AVX/AMX license frequency
	// throttling (actual frequency vs. the scalar license).
	CatThrottle
	// CatMembw is execution time lost to the memory-bandwidth wall
	// (actual grant vs. infinite bandwidth).
	CatMembw
	// CatKVLink is KV-cache transfer serialization wait between
	// disaggregated prefill and decode tiers.
	CatKVLink
	// CatSched is scheduler delay: iteration-boundary alignment and
	// decode-backlog wait not covered by any other category.
	CatSched
	// CatBackoff is retry backoff wait after a crash, harvest to
	// re-dispatch.
	CatBackoff
	// CatRecompute is progress lost to a crash: all time invested in an
	// attempt that died with its machine.
	CatRecompute

	// NumCategories sizes blame vectors.
	NumCategories = int(CatRecompute) + 1
)

// String returns the category's label, used in metrics and tables.
func (c Category) String() string {
	switch c {
	case CatQueue:
		return "queue"
	case CatCompute:
		return "compute"
	case CatThrottle:
		return "throttle"
	case CatMembw:
		return "membw"
	case CatKVLink:
		return "kvlink"
	case CatSched:
		return "sched"
	case CatBackoff:
		return "backoff"
	case CatRecompute:
		return "recompute"
	}
	return "unknown"
}

// Categories returns every category label in vector order.
func Categories() []string {
	out := make([]string, NumCategories)
	for c := 0; c < NumCategories; c++ {
		out[c] = Category(c).String()
	}
	return out
}

// MakeTraceID packs a routing class and a per-class request ID into a
// globally unique nonzero trace ID: per-class generators reuse request
// IDs across classes. Zero means "untraced": it is what a request
// carries when no tracer is attached.
func MakeTraceID(class, id int) uint64 {
	return uint64(class+1)<<32 | uint64(uint32(int32(id)))
}

// SplitTraceID recovers the class and request ID from a trace ID.
func SplitTraceID(tid uint64) (class int, id int) {
	return int(tid>>32) - 1, int(int32(uint32(tid)))
}

// windowS is the SLO burn-rate window width.
const windowS = 1.0

// Config parameterizes a Tracer. The zero value keeps the 64 most
// recent span trees. A tracer records every request.
type Config struct {
	// KeepRecent bounds how many finished span trees are retained for
	// the /requests endpoint (default 64).
	KeepRecent int
	// Telemetry, when set, receives aum_blame_* gauges at every Publish.
	Telemetry *telemetry.Registry
}

func (c Config) withDefaults() Config {
	if c.KeepRecent <= 0 {
		c.KeepRecent = 64
	}
	return c
}

// Span is one interval of a request's lifecycle on one machine.
type Span struct {
	Name  string  `json:"name"`
	Node  int     `json:"node"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// rec is the working record of one request. Exactly one
// goroutine mutates a live rec at a time: the machine currently serving
// the request during an epoch, or the single-threaded barrier code.
type rec struct {
	tid      uint64
	arrival  float64
	outcome  string // "" while in flight; done|shed|dropped|failed
	attempts int
	tokens   int

	firstToken float64
	retiredAt  float64
	spans      []Span
	blameH     [NumCategories]float64 // TTFT side: arrival -> first token
	blameL     [NumCategories]float64 // decode side: first token -> retire

	// Attempt bookkeeping: snapshots taken at attempt start so a crash
	// can roll the vectors back and charge the lost attempt wholesale.
	snapH, snapL [NumCategories]float64
	attemptStart float64
	crashAt      float64

	// Working state within the current attempt.
	lastReady  float64 // when the request last became schedulable
	popAt      float64 // current prefill pop time (-1 when not in prefill)
	lastTok    float64 // previous token completion (decode interval chain)
	injectedAt float64 // KV delivery time on the decode tier (0 = local)
	node       int
}

// burnWindow is one SLO burn-rate bucket: integer counters only, so
// concurrent updates commute and the timeline is width-deterministic.
type burnWindow struct {
	ttftN, ttftViol int
	tokN, tokViol   int
}

// aggregate is the fleet-wide blame fold, mutated only by fold() over
// records sorted by trace ID.
type aggregate struct {
	blameH, blameL [NumCategories]float64
	completed      int
	shed           int
	dropped        int
	failed         int
	ttftSum        float64
	e2eSum         float64
	tokens         int
}

// Listener receives completion-relevant lifecycle callbacks — the hook
// the serving gateway uses to resolve in-flight HTTP requests off the
// span completions the tracer already records. Callbacks fire after
// the tracer's own bookkeeping, outside its lock, on whichever
// goroutine ran the hook (a machine mid-epoch or the barrier code);
// implementations must be safe for concurrent use and must not call
// back into the Tracer.
type Listener interface {
	// OnFirstToken fires at prefill completion (the TTFT endpoint).
	OnFirstToken(tid uint64, simNow float64)
	// OnToken fires once per decode token with the running decode-token
	// count (the first token is OnFirstToken's, not counted here).
	OnToken(tid uint64, simNow float64, tokens int)
	// OnOutcome fires exactly once when the request leaves the live
	// set: done | shed | dropped | failed.
	OnOutcome(tid uint64, simNow float64, outcome string)
}

// Tracer records request lifecycles. All methods are safe for
// concurrent use and no-ops on a nil receiver, so every hook site can
// call unconditionally behind a single nil check.
type Tracer struct {
	mu      sync.Mutex
	cfg     Config
	live    map[uint64]*rec
	doneq   []*rec // finished, awaiting the next fold
	recent  []*rec // folded ring (deterministic order), <= KeepRecent
	agg     aggregate
	windows []burnWindow
	sampled int

	gBlame     [2][NumCategories]*telemetry.Gauge // [side][cat]
	gBurn      [2]*telemetry.Gauge                // last full window rate
	gSampled   *telemetry.Gauge
	gCompleted *telemetry.Gauge

	listener Listener // completion callbacks; guarded by mu for set/get
}

// SetListener registers (or, with nil, clears) the completion listener.
func (t *Tracer) SetListener(l Listener) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.listener = l
	t.mu.Unlock()
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	t := &Tracer{cfg: cfg.withDefaults(), live: make(map[uint64]*rec)}
	if reg := t.cfg.Telemetry; reg != nil {
		for side, name := range []string{"ttft", "tpot"} {
			for c := 0; c < NumCategories; c++ {
				t.gBlame[side][c] = reg.Gauge(fmt.Sprintf(
					"aum_blame_seconds{cat=%q,side=%q}", Category(c).String(), name))
			}
			t.gBurn[side] = reg.Gauge(fmt.Sprintf("aum_slo_burn_rate{slo=%q}", name))
		}
		t.gSampled = reg.Gauge("aum_reqtrace_sampled")
		t.gCompleted = reg.Gauge("aum_reqtrace_completed")
	}
	return t
}

// forcedOn is the process-global default-tracing toggle:
// TestRequestTracingDoesNotChangeResults flips it to force every run
// in the process to carry a tracer, proving the goldens are
// byte-identical either way.
var forcedOn atomic.Bool

// SetForced toggles default request tracing globally: runs whose config
// carries no tracer construct a private one when forced. Results are
// byte-identical either way; the toggle exists so the neutrality proof
// can cover every experiment without touching their configs.
func SetForced(on bool) { forcedOn.Store(on) }

// Forced reports whether default request tracing is forced on.
func Forced() bool { return forcedOn.Load() }

// window returns the burn bucket covering now, growing the timeline as
// needed. Caller holds mu.
func (t *Tracer) window(now float64) *burnWindow {
	i := int(now / windowS)
	if i < 0 {
		i = 0
	}
	for len(t.windows) <= i {
		t.windows = append(t.windows, burnWindow{})
	}
	return &t.windows[i]
}

// get returns the live record for tid, or nil. Caller holds mu.
func (t *Tracer) get(tid uint64) *rec { return t.live[tid] }

// finish moves a record out of the live set. Caller holds mu.
func (t *Tracer) finish(r *rec, outcome string) {
	r.outcome = outcome
	delete(t.live, r.tid)
	t.doneq = append(t.doneq, r)
}

// Submitted records a request entering an engine queue. The first call
// creates the record; re-submissions after a crash are no-ops (the
// Redispatched hook already restarted the attempt clock).
func (t *Tracer) Submitted(tid uint64, arrival float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.live[tid] == nil {
		t.sampled++
		t.live[tid] = &rec{
			tid: tid, arrival: arrival, node: node,
			attempts: 1, attemptStart: arrival, lastReady: arrival, popAt: -1,
		}
	}
	t.mu.Unlock()
}

// Shed records an admission-control drop.
func (t *Tracer) Shed(tid uint64, now float64, reason string, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	r := t.get(tid)
	if r == nil {
		t.sampled++
		r = &rec{tid: tid, arrival: now, node: node, attempts: 1, attemptStart: now, popAt: -1}
		t.live[tid] = r
	}
	r.spans = append(r.spans, Span{Name: "shed:" + reason, Node: node, Start: now, End: now})
	t.finish(r, "shed")
	l := t.listener
	t.mu.Unlock()
	if l != nil {
		l.OnOutcome(tid, now, "shed")
	}
}

// PrefillStart records the request being popped from the queue into a
// prefill job. The queue wait since the request last became
// schedulable is charged here.
func (t *Tracer) PrefillStart(tid uint64, now float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if r := t.get(tid); r != nil {
		r.blameH[CatQueue] += now - r.lastReady
		r.spans = append(r.spans, Span{Name: "queue", Node: node, Start: r.lastReady, End: now})
		r.popAt = now
		r.node = node
	}
	t.mu.Unlock()
}

// chargeExec splits a completed execution interval into compute, membw
// stall, and throttle stall by the job's counterfactual fractions and
// adds it to the blame vector. The three parts sum to the interval, so
// conservation is exact. Caller holds mu.
func chargeExec(v *[NumCategories]float64, execS, membwFrac, throttleFrac float64) {
	mb := execS * membwFrac
	th := execS * throttleFrac
	v[CatMembw] += mb
	v[CatThrottle] += th
	v[CatCompute] += execS - mb - th
}

// FirstToken records prefill completion: a burn-rate TTFT sample, the
// blame vector's execution split and the prefill span.
func (t *Tracer) FirstToken(tid uint64, now float64, met bool, membwFrac, throttleFrac float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	w := t.window(now)
	w.ttftN++
	if !met {
		w.ttftViol++
	}
	var l Listener
	if r := t.get(tid); r != nil && r.popAt >= 0 {
		chargeExec(&r.blameH, now-r.popAt, membwFrac, throttleFrac)
		r.spans = append(r.spans, Span{Name: "prefill", Node: node, Start: r.popAt, End: now})
		r.popAt = -1
		r.firstToken = now
		r.lastTok = now
		l = t.listener
	}
	t.mu.Unlock()
	if l != nil {
		l.OnFirstToken(tid, now)
	}
}

// HandoffReady records the prefill side exporting the request's KV
// cache toward the decode tier.
func (t *Tracer) HandoffReady(tid uint64, now float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if r := t.get(tid); r != nil {
		r.spans = append(r.spans, Span{Name: "handoff", Node: node, Start: now, End: now})
	}
	t.mu.Unlock()
}

// Injected records KV delivery into a decode-tier engine. The link
// serialization wait is charged at the next Token, which sees the full
// first-interval decomposition.
func (t *Tracer) Injected(tid uint64, now float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if r := t.get(tid); r != nil {
		r.injectedAt = now
		r.node = node
		r.spans = append(r.spans, Span{Name: "kv-wait", Node: node, Start: r.lastTok, End: now})
	}
	t.mu.Unlock()
}

// Token records one decode-token completion. eTok is the inter-token
// interval, iterExecS the wall time of the decode iteration that
// produced it; the gap between them is KV-link wait (first interval
// after an injection) and scheduler delay.
func (t *Tracer) Token(tid uint64, now, eTok float64, met bool, iterExecS, membwFrac, throttleFrac float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	w := t.window(now)
	w.tokN++
	if !met {
		w.tokViol++
	}
	var l Listener
	tokens := 0
	if r := t.get(tid); r != nil {
		gap := eTok - iterExecS
		if r.injectedAt > r.lastTok {
			kv := r.injectedAt - r.lastTok
			r.blameL[CatKVLink] += kv
			gap -= kv
		}
		r.blameL[CatSched] += gap
		chargeExec(&r.blameL, iterExecS, membwFrac, throttleFrac)
		r.tokens++
		r.lastTok = now
		l = t.listener
		tokens = r.tokens
	}
	t.mu.Unlock()
	if l != nil {
		l.OnToken(tid, now, tokens)
	}
}

// Retire records the request finishing its output.
func (t *Tracer) Retire(tid uint64, now float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var l Listener
	if r := t.get(tid); r != nil {
		r.retiredAt = now
		if now > r.firstToken {
			r.spans = append(r.spans, Span{Name: "decode", Node: node, Start: r.firstToken, End: now})
		}
		t.finish(r, "done")
		l = t.listener
	}
	t.mu.Unlock()
	if l != nil {
		l.OnOutcome(tid, now, "done")
	}
}

// Dropped records a decode-backlog shed.
func (t *Tracer) Dropped(tid uint64, now float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var l Listener
	if r := t.get(tid); r != nil {
		r.spans = append(r.spans, Span{Name: "backlog-drop", Node: node, Start: now, End: now})
		t.finish(r, "dropped")
		l = t.listener
	}
	t.mu.Unlock()
	if l != nil {
		l.OnOutcome(tid, now, "dropped")
	}
}

// CrashLost records the request's current attempt dying with its
// machine (or its exported KV becoming unreachable): the attempt's
// partial blame is rolled back and the whole attempt charged to
// recompute, keeping conservation exact across retries.
func (t *Tracer) CrashLost(tid uint64, now float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if r := t.get(tid); r != nil {
		r.blameH = r.snapH
		r.blameL = r.snapL
		r.blameH[CatRecompute] += now - r.attemptStart
		r.spans = append(r.spans, Span{Name: "crash-lost", Node: node, Start: r.attemptStart, End: now})
		r.crashAt = now
		r.firstToken = 0
		r.retiredAt = 0
		r.tokens = 0
		r.lastTok = 0
		r.injectedAt = 0
		r.popAt = -1
	}
	t.mu.Unlock()
}

// Redispatched records the retry being routed to a surviving machine:
// the harvest-to-redispatch wait is retry backoff, and a fresh attempt
// starts now.
func (t *Tracer) Redispatched(tid uint64, now float64, node int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if r := t.get(tid); r != nil {
		r.blameH[CatBackoff] += now - r.crashAt
		r.spans = append(r.spans, Span{Name: "backoff", Node: node, Start: r.crashAt, End: now})
		r.attempts++
		r.attemptStart = now
		r.lastReady = now
		r.node = node
		r.snapH = r.blameH
		r.snapL = r.blameL
	}
	t.mu.Unlock()
}

// Failed records the request exhausting its retry budget.
func (t *Tracer) Failed(tid uint64, now float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var l Listener
	if r := t.get(tid); r != nil {
		r.spans = append(r.spans, Span{Name: "retry-exhausted", Node: r.node, Start: now, End: now})
		t.finish(r, "failed")
		l = t.listener
	}
	t.mu.Unlock()
	if l != nil {
		l.OnOutcome(tid, now, "failed")
	}
}

// fold drains finished records into the aggregate in trace-ID order —
// the one place per-request floats are summed fleet-wide, called only
// from single-threaded code (barriers, the colo loop, Report), so the
// totals are identical at every worker width. Caller holds mu.
func (t *Tracer) fold() {
	if len(t.doneq) == 0 {
		return
	}
	sort.Slice(t.doneq, func(i, j int) bool { return t.doneq[i].tid < t.doneq[j].tid })
	for _, r := range t.doneq {
		switch r.outcome {
		case "done":
			t.agg.completed++
			t.agg.tokens += r.tokens
			t.agg.ttftSum += r.firstToken - r.arrival
			t.agg.e2eSum += r.retiredAt - r.arrival
			for c := 0; c < NumCategories; c++ {
				t.agg.blameH[c] += r.blameH[c]
				t.agg.blameL[c] += r.blameL[c]
			}
		case "shed":
			t.agg.shed++
		case "dropped":
			t.agg.dropped++
		case "failed":
			t.agg.failed++
		}
		t.recent = append(t.recent, r)
	}
	t.doneq = t.doneq[:0]
	if over := len(t.recent) - t.cfg.KeepRecent; over > 0 {
		t.recent = append(t.recent[:0], t.recent[over:]...)
	}
}
