package serve

import (
	"fmt"
	"math"

	"aum/internal/llm"
	"aum/internal/reqtrace"
	"aum/internal/telemetry"
)

// MaxBatch caps the decode batch: the paper serves with batch 16.
const MaxBatch = 16

// maxBacklog bounds the prefilled-awaiting-decode backlog at four full
// decode batches; overflow is shed and counted as BacklogDropped.
const maxBacklog = 4 * MaxBatch

// Config parameterizes an engine.
type Config struct {
	Model llm.Model
	SLO   SLO
	// Admission bounds the engine's queue under overload.
	Admission Admission
	// Telemetry, when set, receives per-request latency histograms and
	// shed events. Nil disables recording at the cost of one nil check
	// per hook.
	Telemetry *telemetry.Registry
	// Trace, when set, receives per-request queue/prefill/decode spans
	// in Chrome trace_event form.
	Trace *telemetry.Trace
	// ReqTrace, when set, receives per-request lifecycle hooks for
	// causal tracing and blame attribution (package reqtrace). Nil
	// disables tracing at the cost of one nil check per hook; the
	// tracer is observation-only and never changes results.
	ReqTrace *reqtrace.Tracer
	// Node identifies this engine's machine in request traces (the tid
	// of its spans); single-machine runs leave it 0.
	Node int
	// Handoff, when set, turns the engine into the prefill half of a
	// disaggregated prefill/decode pair: instead of joining this
	// engine's decode batch, each request is passed to the callback at
	// prefill completion (after its TTFT is recorded) so the caller can
	// transfer its KV cache to a decode-tier engine and admit it there
	// via InjectDecode. Requests whose OutputLen is satisfied by the
	// first token still retire locally.
	Handoff func(r *Request, now float64)
}

// Admission is the engine's overload policy. The zero value admits
// every arrival (the paper's unbounded scheduler); the decode backlog
// is bounded at 4x MaxBatch regardless.
type Admission struct {
	// MaxQueue sheds new arrivals once the prefill queue already holds
	// this many requests (0 = unbounded). Shed requests count as
	// Rejected in Stats.
	MaxQueue int
}

// Engine coordinates the two serving phases over a shared request
// population. It is not itself a machine workload; its two Workers are.
type Engine struct {
	cfg Config

	queue        []*Request // waiting for prefill, FCFS
	decodeSet    []*Request // in continuous-batching decode
	admitBacklog []*Request // prefilled, waiting for a decode slot
	stats        Stats

	prefill *Worker
	decode  *Worker

	// Job-formation buffers. At most one job per phase is in flight
	// (each worker owns its phase), so each phase's job and request
	// buffer are re-formed in place by nextPrefillJob and nextDecodeJob:
	// a new job only forms when its worker has no job in flight, so the
	// worker never holds the previous one.
	prefillReq [1]*Request
	decodeReqs []*Request
	prefillJob job
	decodeJob  job

	tel engineTelemetry
	rt  *reqtrace.Tracer
}

// NewEngine creates an engine and its two phase workers.
func NewEngine(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	e.prefill = &Worker{eng: e, phase: llm.Prefill}
	e.decode = &Worker{eng: e, phase: llm.Decode}
	e.tel = newEngineTelemetry(e.cfg.Telemetry, e.cfg.Trace)
	e.rt = e.cfg.ReqTrace
	return e
}

// PrefillWorker returns the machine workload for the prefill phase.
func (e *Engine) PrefillWorker() *Worker { return e.prefill }

// DecodeWorker returns the machine workload for the decode phase.
func (e *Engine) DecodeWorker() *Worker { return e.decode }

// Stats returns a pointer to the engine's cumulative statistics.
func (e *Engine) Stats() *Stats { return &e.stats }

// Submit enqueues a request for prefill. Under Admission.MaxQueue an
// overloaded engine sheds the request instead of queueing it: Submit
// returns nil (shedding is an outcome, not a caller error) and the
// drop shows up in Stats.Rejected.
func (e *Engine) Submit(r *Request) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if mq := e.cfg.Admission.MaxQueue; mq > 0 && len(e.queue) >= mq {
		e.stats.Rejected++
		e.tel.recordShed(r.Arrival, "max-queue")
		if e.rt != nil {
			e.rt.Shed(r.TraceID, r.Arrival, "max-queue", e.cfg.Node)
		}
		return nil
	}
	e.queue = append(e.queue, r)
	e.tel.submitted.Inc()
	if e.rt != nil {
		e.rt.Submitted(r.TraceID, r.Arrival, e.cfg.Node)
	}
	return nil
}

// QueueLen returns the number of requests waiting for prefill.
func (e *Engine) QueueLen() int { return len(e.queue) }

// DecodeBatch returns the current decode batch size.
func (e *Engine) DecodeBatch() int { return len(e.decodeSet) }

// BacklogLen returns the number of prefilled requests waiting for a
// decode slot.
func (e *Engine) BacklogLen() int { return len(e.admitBacklog) }

// Idle reports whether the engine holds no request in any stage —
// queued, mid-prefill, decoding, or backlogged. A draining fleet
// machine may only power off once its engine is idle.
func (e *Engine) Idle() bool {
	return len(e.queue) == 0 && e.prefill.current == nil &&
		len(e.decodeSet) == 0 && len(e.admitBacklog) == 0
}

// InjectDecode admits a request prefilled on another engine into this
// engine's decode batch — the receiving half of disaggregated
// prefill/decode serving. The caller delivers it after the KV-cache
// transfer completes; LastTokenAt is deliberately left at the
// prefill-side completion time so the transfer delay is charged to the
// first decode-token interval. Overflow beyond the backlog bound is
// shed exactly like a local prefill completion.
func (e *Engine) InjectDecode(r *Request, now float64) error {
	if r == nil || r.Done || r.TokensDone < 1 {
		return fmt.Errorf("serve: InjectDecode needs a completed, unfinished prefill")
	}
	e.stats.Injected++
	if len(e.decodeSet) < MaxBatch {
		e.decodeSet = append(e.decodeSet, r)
	} else if len(e.admitBacklog) < maxBacklog {
		e.admitBacklog = append(e.admitBacklog, r)
	} else {
		r.Done = true
		e.stats.BacklogDropped++
		e.tel.recordBacklogDrop(now)
		if e.rt != nil {
			e.rt.Dropped(r.TraceID, now, e.cfg.Node)
		}
		return nil
	}
	if e.rt != nil {
		e.rt.Injected(r.TraceID, now, e.cfg.Node)
	}
	return nil
}

// Crash models the engine's host machine dying: every request in any
// stage — queued, mid-prefill, decoding, or backlogged — is pulled out
// and returned to the caller for re-dispatch elsewhere, and both phase
// workers abort their in-flight iterations. The engine itself stays
// usable (the machine may reboot and serve again); cumulative Stats
// are preserved, so work finished before the crash still counts.
//
// The caller owns the returned requests: it must ResetForRetry each
// one before resubmitting, and must invalidate the host machine's
// fast-forward capture — the workers' feeding state just changed
// behind the machine's back.
func (e *Engine) Crash(now float64) []*Request {
	var lost []*Request
	lost = append(lost, e.queue...)
	// The prefill worker's in-flight job holds the request popped from
	// the queue, which is in no engine list; decode-job requests alias
	// decodeSet entries, so collecting the set covers them.
	if j := e.prefill.current; j != nil {
		lost = append(lost, j.reqs...)
	}
	lost = append(lost, e.decodeSet...)
	lost = append(lost, e.admitBacklog...)
	e.queue = e.queue[:0]
	e.decodeSet = e.decodeSet[:0]
	e.admitBacklog = e.admitBacklog[:0]
	e.prefill.abort()
	e.decode.abort()
	e.tel.recordCrash(now, len(lost))
	return lost
}

// HeadWait returns how long the oldest queued request has been waiting
// at time now — the t_wait of Algorithm 1 line 1.
func (e *Engine) HeadWait(now float64) float64 {
	if len(e.queue) == 0 {
		return 0
	}
	return now - e.queue[0].Arrival
}

// LAGStats summarizes the LAG of in-flight decode requests (Algorithm 1
// line 3): negative means behind the ideal schedule.
type LAGStats struct {
	Min   float64
	Mean  float64
	Count int
}

// LAG returns the LAG statistics of the in-flight decode batch.
func (e *Engine) LAG() LAGStats {
	if len(e.decodeSet) == 0 {
		return LAGStats{Min: 0, Mean: 0}
	}
	min, sum := math.Inf(1), 0.0
	for _, r := range e.decodeSet {
		if r.LAG < min {
			min = r.LAG
		}
		sum += r.LAG
	}
	return LAGStats{Min: min, Mean: sum / float64(len(e.decodeSet)), Count: len(e.decodeSet)}
}

// RuntimeSLOs returns the slack-adjusted runtime SLOs of Algorithm 1
// lines 1-2: SLO_H = d_TTFT - t_wait for the prefill head-of-line and
// SLO_L = d_TPOT + LAG for the decode batch (using the worst request's
// LAG, so a behind-schedule request tightens the target).
func (e *Engine) RuntimeSLOs(now float64) (sloH, sloL float64) {
	sloH = e.cfg.SLO.TTFT - e.HeadWait(now)
	if sloH < 1e-3 {
		sloH = 1e-3
	}
	lag := e.LAG()
	sloL = e.cfg.SLO.TPOT + lag.Min
	if sloL < 1e-3 {
		sloL = 1e-3
	}
	return sloH, sloL
}

// nextPrefillJob pops the head of the queue into the one prefill job
// (FCFS, one request per pass), or returns nil when the queue is empty.
func (e *Engine) nextPrefillJob(now float64) *job {
	if len(e.queue) == 0 {
		return nil
	}
	r := e.queue[0]
	e.queue = append(e.queue[:0], e.queue[1:]...)
	r.PrefillStart = now
	e.prefillReq[0] = r
	j := &e.prefillJob
	*j = job{plan: e.cfg.Model.PlanPrefill(1, r.PromptLen), reqs: e.prefillReq[:], startedAt: now}
	e.rt.PrefillStart(r.TraceID, now, e.cfg.Node)
	return j
}

// nextDecodeJob forms one decode iteration over the current batch, or
// returns nil when no request is decoding.
func (e *Engine) nextDecodeJob(now float64) *job {
	if len(e.decodeSet) == 0 {
		return nil
	}
	reqs := append(e.decodeReqs[:0], e.decodeSet...)
	e.decodeReqs = reqs
	ctx := 0
	for _, r := range reqs {
		ctx += r.PromptLen + r.TokensDone
	}
	plan := e.cfg.Model.PlanDecode(len(reqs), ctx/len(reqs))
	j := &e.decodeJob
	*j = job{plan: plan, reqs: reqs, startedAt: now}
	return j
}

// onPrefillDone records the first token and moves the request into
// the decode batch (continuous batching admits it at the next
// iteration boundary).
func (e *Engine) onPrefillDone(j *job, now float64) {
	r := j.reqs[0]
	r.FirstToken = now
	r.LastTokenAt = now
	r.TokensDone = 1
	e.stats.recordTTFT(now-r.Arrival, e.cfg.SLO, r.PromptLen)
	e.stats.PrefillTokens += float64(r.PromptLen)
	e.tel.recordPrefillDone(r, now, now-r.Arrival <= e.cfg.SLO.TTFT)
	if e.rt != nil {
		e.rt.FirstToken(r.TraceID, now, now-r.Arrival <= e.cfg.SLO.TTFT,
			j.execMembw, j.execThrottle, e.cfg.Node)
	}
	switch {
	case r.OutputLen <= 1:
		r.Done = true
		e.stats.FinishedOutput++
		e.tel.recordRetire(r, now)
		if e.rt != nil {
			e.rt.Retire(r.TraceID, now, e.cfg.Node)
		}
	case e.cfg.Handoff != nil:
		e.stats.HandedOff++
		if e.rt != nil {
			e.rt.HandoffReady(r.TraceID, now, e.cfg.Node)
		}
		e.cfg.Handoff(r, now)
	case len(e.decodeSet) < MaxBatch:
		e.decodeSet = append(e.decodeSet, r)
	case len(e.admitBacklog) < maxBacklog:
		// Batch full: append to the admission backlog; requests join
		// the decode batch in FIFO order as slots free up.
		e.admitBacklog = append(e.admitBacklog, r)
	default:
		// Backlog bound reached: shed the request rather than let the
		// backlog grow without limit under overload.
		r.Done = true
		e.stats.BacklogDropped++
		e.tel.recordBacklogDrop(now)
		if e.rt != nil {
			e.rt.Dropped(r.TraceID, now, e.cfg.Node)
		}
	}
}

// onDecodeDone records one produced token per request and retires
// finished requests, admitting backlog into freed slots. Requests that
// joined the batch while this iteration was in flight (continuous
// batching admits at iteration boundaries) are untouched and simply
// stay in the batch.
func (e *Engine) onDecodeDone(j *job, now float64) {
	e.tel.batchOcc.Observe(float64(len(j.reqs)))
	iterExec := now - j.startedAt
	for _, r := range j.reqs {
		eTok := now - r.LastTokenAt
		r.LastTokenAt = now
		r.TokensDone++
		r.LAG += e.cfg.SLO.TPOT - eTok
		e.stats.recordToken(eTok, e.cfg.SLO.TPOT)
		e.tel.recordToken(eTok, eTok <= e.cfg.SLO.TPOT)
		if e.rt != nil {
			e.rt.Token(r.TraceID, now, eTok, eTok <= e.cfg.SLO.TPOT,
				iterExec, j.execMembw, j.execThrottle)
		}
		if r.TokensDone >= r.OutputLen {
			r.Done = true
			e.stats.FinishedOutput++
			e.tel.recordRetire(r, now)
			if e.rt != nil {
				e.rt.Retire(r.TraceID, now, e.cfg.Node)
			}
		}
	}
	keep := e.decodeSet[:0]
	for _, r := range e.decodeSet {
		if !r.Done {
			keep = append(keep, r)
		}
	}
	e.decodeSet = keep
	for len(e.admitBacklog) > 0 && len(e.decodeSet) < MaxBatch {
		e.decodeSet = append(e.decodeSet, e.admitBacklog[0])
		e.admitBacklog = e.admitBacklog[1:]
	}
}
