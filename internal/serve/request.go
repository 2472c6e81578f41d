// Package serve implements the AU-accelerated LLM serving engine: FCFS
// prompt scheduling into a prefill worker, continuous batching in a
// decode worker, and the SLO bookkeeping AUM's controller consumes —
// time-to-first-token, time-per-output-token, and the per-request LAG
// of Algorithm 1.
//
// The two phases run as separate machine workloads so a resource
// manager can place them in different processor regions (the paper's
// C_H and C_L divisions) and give each its own class of service.
package serve

import "fmt"

// Request is one serving request.
type Request struct {
	ID        int
	Arrival   float64 // submission time
	PromptLen int     // input tokens
	OutputLen int     // output tokens to generate (including the first)
	// TraceID identifies the request in the causal tracer (package
	// reqtrace); 0 means untraced. Like ID and Arrival it survives
	// ResetForRetry, so one trace follows the request across failover
	// hops.
	TraceID uint64

	// Filled in as the request progresses.
	PrefillStart float64 // when the request was popped into prefill
	FirstToken   float64 // completion time of the prefill (TTFT endpoint)
	LastTokenAt  float64 // completion time of the most recent token
	TokensDone   int     // output tokens produced so far
	LAG          float64 // sum over tokens of (d_TPOT - e_token), Algorithm 1 line 3
	Done         bool
}

// ResetForRetry clears all progress state so the request can be
// re-dispatched after the machine serving it crashed. Identity and
// Arrival are preserved: a retried request's TTFT is still measured
// from its original submission, so failover latency is charged
// honestly against the SLO rather than laundered by a fresh clock.
func (r *Request) ResetForRetry() {
	r.PrefillStart = 0
	r.FirstToken = 0
	r.LastTokenAt = 0
	r.TokensDone = 0
	r.LAG = 0
	r.Done = false
}

// Validate reports whether the request is well-formed.
func (r *Request) Validate() error {
	if r.PromptLen < 1 {
		return fmt.Errorf("serve: request %d has prompt length %d", r.ID, r.PromptLen)
	}
	if r.OutputLen < 1 {
		return fmt.Errorf("serve: request %d has output length %d", r.ID, r.OutputLen)
	}
	return nil
}

// TTFT returns the request's time to first token, or 0 if the first
// token has not been produced.
func (r *Request) TTFT() float64 {
	if r.FirstToken <= 0 {
		return 0
	}
	return r.FirstToken - r.Arrival
}

// SLO is a scenario's latency objective (Table IV).
type SLO struct {
	TTFT float64 // d_TTFT: deadline for the first token
	TPOT float64 // d_TPOT: deadline per subsequent token
}

// TTFTPerTokenS is the per-input-token allowance added to the absolute
// TTFT deadline when counting *guaranteed* prefill throughput: a
// 4000-token prompt cannot physically meet the same wall-clock deadline
// as a 40-token one, so serving systems scale the prefill SLO with
// request size. The allowance corresponds to ~1250 input tokens/s of
// sustained prefill throughput plus a 100 ms queueing budget. The absolute-deadline attainment (the
// number the paper quotes for the strict cc scenario) is tracked
// separately.
const TTFTPerTokenS = 8e-4

// ScaledTTFTDeadline returns the size-scaled deadline for a prompt:
// a fixed queueing/overhead budget plus a per-token compute allowance,
// floored at the absolute SLO (a scenario whose absolute deadline is
// already generous — sm's 1.5 s — is judged on it directly).
func (s SLO) ScaledTTFTDeadline(promptLen int) float64 {
	scaled := 0.1 + float64(promptLen)*TTFTPerTokenS
	if s.TTFT > scaled {
		return s.TTFT
	}
	return scaled
}
