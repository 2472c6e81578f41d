package serve

import "aum/internal/telemetry"

// Histogram bucket bounds for the serving-side latency distributions.
// Chosen around the paper's SLOs (d_TTFT on the order of hundreds of
// milliseconds, d_TPOT tens of milliseconds) so the interesting mass
// never collapses into one bucket.
var (
	ttftBounds      = []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1, 1.5, 2, 3, 5, 10}
	tpotBounds      = []float64{0.01, 0.02, 0.03, 0.04, 0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.5}
	queueWaitBounds = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 5, 10}
	batchBounds     = []float64{1, 2, 4, 8, 12, 16, 24, 32}
)

// engineTelemetry caches metric handles so the per-request and
// per-token hot paths never touch the registry's name map. The zero
// value (all-nil handles) makes every record call a no-op.
type engineTelemetry struct {
	reg   *telemetry.Registry
	trace *telemetry.Trace

	submitted      *telemetry.Counter
	rejected       *telemetry.Counter
	backlogDropped *telemetry.Counter
	prefills       *telemetry.Counter
	ttftMet        *telemetry.Counter
	decodeTokens   *telemetry.Counter
	tpotMet        *telemetry.Counter
	finished       *telemetry.Counter

	ttft      *telemetry.Histogram
	tpot      *telemetry.Histogram
	queueWait *telemetry.Histogram
	batchOcc  *telemetry.Histogram
}

func newEngineTelemetry(reg *telemetry.Registry, trace *telemetry.Trace) engineTelemetry {
	if reg == nil && trace == nil {
		return engineTelemetry{}
	}
	return engineTelemetry{
		reg:            reg,
		trace:          trace,
		submitted:      reg.Counter("aum_serve_submitted_total"),
		rejected:       reg.Counter("aum_serve_rejected_total"),
		backlogDropped: reg.Counter("aum_serve_backlog_dropped_total"),
		prefills:       reg.Counter("aum_serve_prefills_total"),
		ttftMet:        reg.Counter("aum_serve_ttft_met_total"),
		decodeTokens:   reg.Counter("aum_serve_decode_tokens_total"),
		tpotMet:        reg.Counter("aum_serve_tpot_met_total"),
		finished:       reg.Counter("aum_serve_finished_total"),
		ttft:           reg.Histogram("aum_serve_ttft_seconds", ttftBounds),
		tpot:           reg.Histogram("aum_serve_tpot_seconds", tpotBounds),
		queueWait:      reg.Histogram("aum_serve_queue_wait_seconds", queueWaitBounds),
		batchOcc:       reg.Histogram("aum_serve_decode_batch_occupancy", batchBounds),
	}
}

func (t *engineTelemetry) recordCrash(now float64, lost int) {
	t.reg.Emit(now, "serve", "engine-crash", telemetry.Ff("lost_requests", float64(lost)))
}

func (t *engineTelemetry) recordShed(now float64, reason string) {
	t.rejected.Inc()
	t.reg.Emit(now, "serve", "admission-shed", telemetry.F("reason", reason))
}

func (t *engineTelemetry) recordBacklogDrop(now float64) {
	t.backlogDropped.Inc()
	t.reg.Emit(now, "serve", "backlog-drop")
}

func (t *engineTelemetry) recordPrefillDone(r *Request, now float64, met bool) {
	t.prefills.Inc()
	if met {
		t.ttftMet.Inc()
	}
	t.ttft.Observe(now - r.Arrival)
	t.queueWait.Observe(r.PrefillStart - r.Arrival)
	if t.trace != nil {
		t.trace.Span("queue", "serve", telemetry.PIDServe, r.ID, r.Arrival, r.PrefillStart, nil)
		t.trace.Span("prefill", "serve", telemetry.PIDServe, r.ID, r.PrefillStart, now,
			map[string]float64{"prompt_tokens": float64(r.PromptLen)})
	}
}

func (t *engineTelemetry) recordToken(eTok float64, met bool) {
	t.decodeTokens.Inc()
	if met {
		t.tpotMet.Inc()
	}
	t.tpot.Observe(eTok)
}

func (t *engineTelemetry) recordRetire(r *Request, now float64) {
	t.finished.Inc()
	if t.trace != nil {
		t.trace.Span("decode", "serve", telemetry.PIDServe, r.ID, r.FirstToken, now,
			map[string]float64{"output_tokens": float64(r.TokensDone)})
	}
}
