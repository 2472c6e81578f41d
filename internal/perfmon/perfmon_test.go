package perfmon

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPercentile(t *testing.T) {
	vals := []float64{4, 1, 3, 2}
	if Percentile(vals, 0) != 1 || Percentile(vals, 100) != 4 {
		t.Fatal("extremes")
	}
	if got := Percentile(vals, 50); math.Abs(got-2.5) > 1e-9 {
		t.Fatalf("p50 = %v", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty")
	}
	// Input must not be mutated.
	if vals[0] != 4 {
		t.Fatal("percentile sorted the caller's slice")
	}
}

// sortedPercentile is the copy-and-sort definition Percentile must
// reproduce bit for bit.
func sortedPercentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
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

// TestPercentileMatchesSortOracle compares the selection-based
// Percentile against sortedPercentile on random slices of 1 to 4096
// values drawn from pools small enough to repeat, at the percentiles
// the serving stats and the fleet report.
func TestPercentileMatchesSortOracle(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(4096)
		if trial < 16 {
			n = trial + 1
		}
		pool := make([]float64, 1+r.Intn(2*n))
		for i := range pool {
			pool[i] = (r.Float64() - 0.25) * math.Pow(10, float64(r.Intn(7)-3))
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = pool[r.Intn(len(pool))]
		}
		if trial%5 == 0 {
			sort.Float64s(vals) // presorted input
		}
		orig := append([]float64(nil), vals...)
		for _, p := range []float64{0, 1, 50, 90, 99, 100} {
			got, want := Percentile(vals, p), sortedPercentile(vals, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d n=%d p=%v: got %v, sort gives %v", trial, n, p, got, want)
			}
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("trial %d: Percentile reordered its input", trial)
			}
		}
	}
}
