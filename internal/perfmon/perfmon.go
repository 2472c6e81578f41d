// Package perfmon summarizes the latency samples the serving engines
// and the fleet report: Percentile selects a percentile without sorting
// or mutating its input.
package perfmon

import (
	"math/bits"
	"slices"
	"sync"
)

// Percentile returns the p-th percentile (0..100) of the values,
// interpolated linearly between the two nearest ranks of the ascending
// order sort.Float64s defines (NaNs first). It selects those two ranks
// in a pooled scratch copy instead of sorting a fresh one, so it leaves
// values as they are and allocates nothing at steady state.
func Percentile(values []float64, p float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return extreme(values, floatLess)
	}
	if p >= 100 {
		return extreme(values, func(x, m float64) bool { return floatLess(m, x) })
	}
	idx := p / 100 * float64(n-1)
	lo := int(idx)
	frac := idx - float64(lo)
	buf := scratch.Get().(*[]float64)
	defer scratch.Put(buf)
	s := append((*buf)[:0], values...)
	*buf = s
	selectRank(s, lo)
	if lo+1 >= n {
		return s[lo]
	}
	// Every element after rank lo is at least s[lo], so rank lo+1 is
	// their minimum.
	return s[lo]*(1-frac) + extreme(s[lo+1:], floatLess)*frac
}

// scratch holds Percentile's working copies. Serving engines call it
// at every controller tick from parallel experiment workers.
var scratch = sync.Pool{New: func() any { return new([]float64) }}

// floatLess is the order of sort.Float64s and slices.Sort: ascending,
// NaNs first.
func floatLess(x, y float64) bool { return x < y || (x != x && y == y) }

// extreme returns the first element of s that no later one beats.
func extreme(s []float64, beats func(x, m float64) bool) float64 {
	m := s[0]
	for _, x := range s[1:] {
		if beats(x, m) {
			m = x
		}
	}
	return m
}

// selectRank reorders s so that s[k] holds the element an ascending
// sort would put there, with no greater element before it and no
// smaller one after it. It partitions three ways around a median-of-
// three pivot, so duplicates cost nothing extra, and sorts what is left
// once its depth budget runs out, so it never takes more than
// O(n log n).
func selectRank(s []float64, k int) {
	lo, hi := 0, len(s)
	for budget := 2 * bits.Len(uint(len(s))); hi-lo > 1; budget-- {
		if budget == 0 {
			slices.Sort(s[lo:hi])
			return
		}
		pivot := median3(s[lo], s[lo+(hi-lo)/2], s[hi-1])
		// [lo, lt) < pivot, [lt, gt) == pivot, [gt, hi) > pivot.
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch {
			case floatLess(s[i], pivot):
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case floatLess(pivot, s[i]):
				gt--
				s[i], s[gt] = s[gt], s[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// median3 returns the median of a, b and c under floatLess.
func median3(a, b, c float64) float64 {
	if floatLess(b, a) {
		a, b = b, a
	}
	if floatLess(c, b) {
		b = c
		if floatLess(b, a) {
			b = a
		}
	}
	return b
}
