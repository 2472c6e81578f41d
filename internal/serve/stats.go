package serve

import "aum/internal/perfmon"

// maxRecent bounds the sliding windows used for tail estimation.
const maxRecent = 2048

// Stats accumulates serving performance. All counters are cumulative;
// controllers measure intervals by snapshotting and subtracting.
type Stats struct {
	// Prefill.
	PrefillRequests int
	PrefillTokens   float64 // input tokens processed
	// GuaranteedPrefillTokens counts the prompt tokens of requests
	// whose first token met the size-scaled TTFT deadline — the
	// paper's "tokens with performance guarantees" on the prefill
	// side. TTFTMet counts requests meeting the absolute d_TTFT;
	// TTFTMetScaled counts requests meeting the scaled deadline.
	GuaranteedPrefillTokens float64
	TTFTMet                 int
	TTFTMetScaled           int
	TTFTSum                 float64
	recentTTFT              window

	// Decode.
	DecodeTokens   float64
	TPOTMet        float64
	TPOTSum        float64
	recentTPOT     window
	FinishedOutput int // fully completed requests

	// Guaranteed throughput: tokens produced within their SLO.
	GuaranteedTokens float64

	// Admission-control breakdown (all zero when the engine runs the
	// paper's unbounded scheduler).
	Rejected       int // shed at Submit by Admission.MaxQueue
	BacklogDropped int // prefilled but shed at the bounded decode backlog

	// Disaggregated-serving traffic (zero for a self-contained engine).
	HandedOff int // prefills exported via Config.Handoff
	Injected  int // remote prefills admitted via InjectDecode
}

// window holds the last maxRecent samples. Once full, a push
// overwrites the oldest sample in place, so the samples are not in
// arrival order; every reader (a percentile) is order-independent.
type window struct {
	s    []float64
	next int // slot the next push overwrites once the window is full
}

func (w *window) push(v float64) {
	if len(w.s) < maxRecent {
		w.s = append(w.s, v)
		return
	}
	w.s[w.next] = v
	w.next = (w.next + 1) % maxRecent
}

func (s *Stats) recordTTFT(ttft float64, slo SLO, promptTokens int) {
	s.PrefillRequests++
	s.TTFTSum += ttft
	if ttft <= slo.TTFT {
		s.TTFTMet++
	}
	if ttft <= slo.ScaledTTFTDeadline(promptTokens) {
		s.TTFTMetScaled++
		s.GuaranteedPrefillTokens += float64(promptTokens)
	}
	s.recentTTFT.push(ttft)
}

func (s *Stats) recordToken(latency, deadline float64) {
	s.DecodeTokens++
	s.TPOTSum += latency
	if latency <= deadline {
		s.TPOTMet++
		s.GuaranteedTokens++
	}
	s.recentTPOT.push(latency)
}

// TTFTGuarantee returns the fraction of prefills meeting the absolute
// TTFT SLO.
func (s *Stats) TTFTGuarantee() float64 {
	if s.PrefillRequests == 0 {
		return 1
	}
	return float64(s.TTFTMet) / float64(s.PrefillRequests)
}

// TTFTGuaranteeScaled returns the fraction meeting the size-scaled
// deadline.
func (s *Stats) TTFTGuaranteeScaled() float64 {
	if s.PrefillRequests == 0 {
		return 1
	}
	return float64(s.TTFTMetScaled) / float64(s.PrefillRequests)
}

// TPOTGuarantee returns the fraction of decode tokens meeting the TPOT
// SLO.
func (s *Stats) TPOTGuarantee() float64 {
	if s.DecodeTokens == 0 {
		return 1
	}
	return s.TPOTMet / s.DecodeTokens
}

// MeanTTFT returns the average time-to-first-token.
func (s *Stats) MeanTTFT() float64 {
	if s.PrefillRequests == 0 {
		return 0
	}
	return s.TTFTSum / float64(s.PrefillRequests)
}

// MeanTPOT returns the average time-per-output-token.
func (s *Stats) MeanTPOT() float64 {
	if s.DecodeTokens == 0 {
		return 0
	}
	return s.TPOTSum / s.DecodeTokens
}

// TailTPOT returns the p-th percentile of recent token latencies.
func (s *Stats) TailTPOT(p float64) float64 {
	return perfmon.Percentile(s.recentTPOT.s, p)
}

// TailTTFT returns the p-th percentile of recent TTFTs.
func (s *Stats) TailTTFT(p float64) float64 {
	return perfmon.Percentile(s.recentTTFT.s, p)
}

// RecentTTFTs returns the sliding TTFT window (at most maxRecent
// samples, in no particular order). The fleet layer merges per-node
// windows to estimate a fleet-wide tail. The caller must not mutate the
// returned slice.
func (s *Stats) RecentTTFTs() []float64 { return s.recentTTFT.s }

// Clone returns a copy safe to keep as an interval snapshot.
func (s *Stats) Clone() Stats {
	c := *s
	c.recentTTFT.s = append([]float64(nil), s.recentTTFT.s...)
	c.recentTPOT.s = append([]float64(nil), s.recentTPOT.s...)
	return c
}
