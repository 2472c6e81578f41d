package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks, without reordering xs. It returns NaN for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// medians takes repetitions of the same sequence of timed steps and
// returns each step's median across the repetitions that reached it. A
// host stall lands on single steps of single repetitions; the per-step
// median keeps it out, where a median of whole repetitions would not.
func medians(reps [][]float64) []float64 {
	var out []float64
	for k := 0; ; k++ {
		var at []float64
		for _, r := range reps {
			if k < len(r) {
				at = append(at, r[k])
			}
		}
		if len(at) == 0 {
			return out
		}
		out = append(out, median(at))
	}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// tailPercentile is a percentile reported together with the number of
// samples behind it.
type tailPercentile struct {
	Value   float64
	Samples int
	// Beyond is how many samples lie above the percentile's rank.
	Beyond int
}

// percentileWithCount returns the p-th percentile of xs and how many
// samples sit beyond it. ok is false when fewer than minBeyond samples
// lie beyond the percentile — such a tail is too thin to report.
func percentileWithCount(xs []float64, p float64, minBeyond int) (tailPercentile, bool) {
	n := len(xs)
	tp := tailPercentile{Samples: n}
	if n == 0 {
		return tp, false
	}
	tp.Value = quantile(xs, p/100)
	tp.Beyond = n - int(math.Ceil(p/100*float64(n)))
	return tp, tp.Beyond >= minBeyond
}

// splitmix64 is a small seeded generator: the benchmark's inputs are a
// pure function of --seed.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in (0, 1].
func (r *splitmix64) float() float64 {
	return (float64(r.next()>>11) + 1) / (1 << 53)
}

// arrival is one request of an open-loop schedule.
type arrival struct {
	DueS         float64 // offset from the schedule start, in wall seconds
	PromptTokens int
}

// poissonSchedule returns the open-loop arrivals of a Poisson process
// at ratePerS over durS seconds, with log-uniform prompt lengths in
// [minPrompt, maxPrompt]. The same seed yields the same schedule.
func poissonSchedule(seed uint64, ratePerS, durS float64, minPrompt, maxPrompt int) []arrival {
	r := splitmix64{state: seed ^ 0x5851f42d4c957f2d}
	var out []arrival
	t := 0.0
	lo, hi := math.Log(float64(minPrompt)), math.Log(float64(maxPrompt))
	for {
		t += -math.Log(r.float()) / ratePerS
		if t >= durS {
			return out
		}
		p := int(math.Round(math.Exp(lo + (hi-lo)*r.float())))
		out = append(out, arrival{DueS: t, PromptTokens: min(max(p, minPrompt), maxPrompt)})
	}
}
