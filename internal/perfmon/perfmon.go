// Package perfmon derives the characterization metrics the paper
// reports from a task's accumulated machine statistics: top-down cycle
// distributions (Figure 7), backend decompositions (Figure 8), and the
// per-model usage metrics of Table II (tma_amx_busy, fp_amx ratio,
// backend bound, dram bound). It reads statistics after the fact and
// never hooks into machine stepping.
package perfmon

import (
	"sort"

	"aum/internal/machine"
	"aum/internal/topdown"
)

// UsageMetrics are the Table II per-phase metrics derived from a task's
// accumulated statistics.
type UsageMetrics struct {
	AMXCycleRatio float64 // tma_amx_busy
	FPAMXRatio    float64 // tma_fp_amx / tma_fp_arith
	AVXCycleRatio float64
	BackendBound  float64
	DRAMBound     float64 // dram share of total cycles
	FrontendBound float64
	Retiring      float64
}

// Usage derives the Table II metrics from task statistics.
func Usage(st machine.TaskStats) UsageMetrics {
	b := st.NormalizedBreakdown()
	return UsageMetrics{
		AMXCycleRatio: st.AMXCycleRatio(),
		FPAMXRatio:    st.FPAMXRatio(),
		AVXCycleRatio: st.AVXCycleRatio(),
		BackendBound:  b.BackendBound,
		DRAMBound:     b.DRAMBound,
		FrontendBound: b.FrontendBound,
		Retiring:      b.Retiring,
	}
}

// Distribution returns the normalized top-down breakdown of a task,
// the quantity Figure 7 plots.
func Distribution(st machine.TaskStats) topdown.Breakdown {
	return st.NormalizedBreakdown()
}

// Percentile returns the p-th percentile (0..100) of the values.
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := make([]float64, len(values))
	copy(s, values)
	sort.Float64s(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	idx := p / 100 * float64(len(s)-1)
	lo := int(idx)
	frac := idx - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
