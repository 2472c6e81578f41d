package topdown

import (
	"testing"
	"testing/quick"
)

func TestComposeValid(t *testing.T) {
	f := func(retire, bad, fe, coreShare, serShare, w0, w1, w2, w3, bw float64) bool {
		clamp := func(v float64) float64 {
			if v < 0 {
				v = -v
			}
			for v > 1 {
				v /= 10
			}
			return v
		}
		b := Compose(clamp(retire), clamp(bad), clamp(fe), clamp(coreShare), clamp(serShare),
			[4]float64{clamp(w0), clamp(w1), clamp(w2), clamp(w3)}, clamp(bw))
		return b.Valid(1e-6) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestComposeKnown(t *testing.T) {
	b := Compose(0.1, 0.02, 0.03, 0.4, 0.5, [4]float64{1, 1, 1, 1}, 0.8)
	if err := b.Valid(1e-9); err != nil {
		t.Fatal(err)
	}
	if b.Retiring != 0.1 || b.BadSpec != 0.02 || b.FrontendBound != 0.03 {
		t.Fatalf("level-1 passthrough wrong: %+v", b)
	}
	wantBE := 1 - 0.1 - 0.02 - 0.03
	if diff := b.BackendBound - wantBE; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("backend = %v, want %v", b.BackendBound, wantBE)
	}
	if b.CoreBound <= 0 || b.MemBound <= 0 {
		t.Fatalf("splits empty: %+v", b)
	}
	// Even path weights split memory evenly.
	if d := b.L1Bound - b.DRAMBound; d > 1e-9 || d < -1e-9 {
		t.Fatalf("even weights not even: L1=%v dram=%v", b.L1Bound, b.DRAMBound)
	}
}

func TestComposeOversubscribedLevel1(t *testing.T) {
	b := Compose(0.8, 0.5, 0.4, 0.5, 0.5, [4]float64{1, 0, 0, 0}, 0.5)
	if err := b.Valid(1e-6); err != nil {
		t.Fatalf("oversubscribed inputs produced invalid breakdown: %v", err)
	}
	if b.BackendBound < -1e-9 {
		t.Fatalf("negative backend bound %v", b.BackendBound)
	}
}

func TestWeightedNormalize(t *testing.T) {
	a := Compose(0.1, 0.01, 0.02, 0.3, 0.5, [4]float64{1, 2, 3, 4}, 0.7)
	b := Compose(0.3, 0.02, 0.05, 0.6, 0.2, [4]float64{4, 3, 2, 1}, 0.3)
	var acc Breakdown
	acc.Weighted(&a, 2)
	acc.Weighted(&b, 1)
	acc.Normalize()
	if err := acc.Valid(1e-6); err != nil {
		t.Fatal(err)
	}
	want := (2*a.Retiring + b.Retiring) / 3
	if d := acc.Retiring - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("weighted retiring = %v, want %v", acc.Retiring, want)
	}
}

func TestNormalizeZero(t *testing.T) {
	var b Breakdown
	b.Normalize() // must not panic or produce NaN
	if b.Retiring != 0 {
		t.Fatal("zero breakdown changed by Normalize")
	}
}

func TestValidCatchesInconsistency(t *testing.T) {
	b := Compose(0.1, 0.02, 0.03, 0.4, 0.5, [4]float64{1, 1, 1, 1}, 0.8)
	b.CoreBound += 0.2
	if b.Valid(1e-6) == nil {
		t.Fatal("Valid accepted an inconsistent breakdown")
	}
}
