package trace

import (
	"math"

	"aum/internal/rng"
)

// Shaper modulates a Generator's arrival rate over time, turning the
// homogeneous Poisson stream into an inhomogeneous one with rate
// rate(t) = Rate * Factor(t). The generator realizes the modulation by
// thinning (Lewis-Shedler): candidates are drawn at Rate * MaxFactor()
// and accepted with probability Factor(t)/MaxFactor(), which keeps the
// stream exact for any integrable factor curve and — because the next
// accepted arrival is resolved eagerly at scheduling time — preserves
// the NextEventAt horizon contract (DESIGN.md §9) bit-for-bit.
//
// Implementations must be pure: Factor is a function of t only, so a
// shaped generator replays identically from a seed regardless of
// worker width or fast-forward.
type Shaper interface {
	// Factor returns the instantaneous rate multiplier at absolute
	// simulation time t. It must be non-negative and bounded above by
	// MaxFactor for every t.
	Factor(t float64) float64
	// MaxFactor is the thinning envelope: an upper bound on Factor
	// over all t. It must be positive and finite.
	MaxFactor() float64
}

// Diurnal is a sinusoidal day/night load curve:
//
//	Factor(t) = 1 + Amplitude * sin(2π (t/PeriodS + PhaseFrac))
//
// Amplitude must lie in [0, 1) so the factor stays strictly positive
// (the thinning acceptance probability never collapses to zero). The
// mean factor over whole periods is exactly 1, so the long-run offered
// rate matches the configured Rate.
type Diurnal struct {
	PeriodS   float64 // cycle length in simulated seconds (> 0)
	Amplitude float64 // peak deviation from the mean, in [0, 1)
	PhaseFrac float64 // phase offset as a fraction of the period
}

// Factor implements Shaper.
func (d Diurnal) Factor(t float64) float64 {
	return 1 + d.Amplitude*math.Sin(2*math.Pi*(t/d.PeriodS+d.PhaseFrac))
}

// MaxFactor implements Shaper.
func (d Diurnal) MaxFactor() float64 { return 1 + d.Amplitude }

// FlashCrowd is a trapezoidal surge envelope over a baseline of 1: the
// rate ramps linearly to Peak over RampS starting at AtS, holds for
// HoldS, and decays back over DecayS — the "everyone opens the app at
// once" event the autoscaler is judged on.
type FlashCrowd struct {
	AtS    float64 // surge start (>= 0)
	RampS  float64 // linear ramp-up duration (>= 0)
	HoldS  float64 // plateau duration (>= 0)
	DecayS float64 // linear ramp-down duration (>= 0)
	Peak   float64 // plateau factor (>= 1)
}

// Factor implements Shaper.
func (f FlashCrowd) Factor(t float64) float64 {
	switch {
	case t < f.AtS:
		return 1
	case t < f.AtS+f.RampS:
		return 1 + (f.Peak-1)*(t-f.AtS)/f.RampS
	case t < f.AtS+f.RampS+f.HoldS:
		return f.Peak
	case t < f.AtS+f.RampS+f.HoldS+f.DecayS:
		return f.Peak - (f.Peak-1)*(t-f.AtS-f.RampS-f.HoldS)/f.DecayS
	}
	return 1
}

// MaxFactor implements Shaper.
func (f FlashCrowd) MaxFactor() float64 { return f.Peak }

// BurstStorm overlays seeded, correlated burst windows on a baseline of
// 1: window starts are spaced by exponential gaps with mean MeanGapS,
// each window lasts DurS and multiplies the rate by Factor. The windows
// are precomputed for the whole horizon at construction, so Factor is a
// pure function of t and the shaped stream stays deterministic.
type BurstStorm struct {
	factor float64
	starts []float64 // sorted window starts within [0, horizon)
	durS   float64
}

// NewBurstStorm builds a storm covering horizonS seconds. The same
// arguments always produce the same storm; gaps are drawn from a stream
// derived from (seed, 0xb57) so the storm is independent of every other
// consumer of the root seed.
func NewBurstStorm(meanGapS, durS, factor, horizonS float64, seed uint64) *BurstStorm {
	st := rng.Derive(seed, 0xb57)
	b := &BurstStorm{factor: factor, durS: durS}
	for t := st.Exp(1 / meanGapS); t < horizonS; t += durS + st.Exp(1/meanGapS) {
		b.starts = append(b.starts, t)
	}
	return b
}

// Factor implements Shaper.
func (b *BurstStorm) Factor(t float64) float64 {
	// Binary search for the last window starting at or before t.
	lo, hi := 0, len(b.starts)
	for lo < hi {
		mid := (lo + hi) / 2
		if b.starts[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > 0 && t < b.starts[lo-1]+b.durS {
		return b.factor
	}
	return 1
}

// MaxFactor implements Shaper.
func (b *BurstStorm) MaxFactor() float64 {
	if b.factor > 1 {
		return b.factor
	}
	return 1
}

// Windows reports how many burst windows the storm schedules.
func (b *BurstStorm) Windows() int { return len(b.starts) }

// Component is one class of a mixture scenario: a tenant (or request
// family) with its own log-normal length statistics. A Scenario with a
// non-empty Mix draws each arrival's component by Weight first, then
// samples the lengths from that component — the arrival process itself
// (and hence NextEventAt) is untouched.
type Component struct {
	Weight      float64
	MeanInput   int
	MeanOutput  int
	SigmaInput  float64
	SigmaOutput float64
}

// ZipfMix builds an n-tenant popularity-skewed mixture over a base
// scenario: tenant k (rank 0 = most popular) has weight 1/(k+1)^s, and
// its prompt/output means are the base means scaled by
// 1 + spread*k/(n-1) — tail tenants issue progressively longer
// requests, the shape real multi-tenant serving logs show.
func ZipfMix(base Scenario, n int, s, spread float64) []Component {
	if n < 1 {
		return nil
	}
	mix := make([]Component, n)
	for k := 0; k < n; k++ {
		scale := 1.0
		if n > 1 {
			scale = 1 + spread*float64(k)/float64(n-1)
		}
		mix[k] = Component{
			Weight:      1 / math.Pow(float64(k+1), s),
			MeanInput:   int(float64(base.MeanInput)*scale + 0.5),
			MeanOutput:  int(float64(base.MeanOutput)*scale + 0.5),
			SigmaInput:  base.SigmaInput,
			SigmaOutput: base.SigmaOutput,
		}
	}
	return mix
}
