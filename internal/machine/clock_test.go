package machine

import (
	"math"
	"math/rand"
	"testing"

	"aum/internal/platform"
	"aum/internal/power"
)

// TestTickOfTable pins the time -> tick conversion at exact multiples
// of DT and one ulp on each side: a time on a tick's start maps to that
// tick, one ulp later to the next, one ulp earlier to the same tick
// (the previous tick starts a whole DT before it).
func TestTickOfTable(t *testing.T) {
	for _, k := range []int64{1, 2, 3, 7, 49, 50, 51, 250, 999, 1000, 1001, 3333, 3334, 10000, 123457, 3600000, 1 << 40} {
		at := Time(k)
		if got := TickOf(at); got != k {
			t.Errorf("TickOf(Time(%d)) = %d, want %d", k, got, k)
		}
		if got := TickOf(math.Nextafter(at, math.Inf(1))); got != k+1 {
			t.Errorf("TickOf(Time(%d)+ulp) = %d, want %d", k, got, k+1)
		}
		if got := TickOf(math.Nextafter(at, math.Inf(-1))); got != k {
			t.Errorf("TickOf(Time(%d)-ulp) = %d, want %d", k, got, k)
		}
	}
	for _, tc := range []struct {
		t    float64
		want int64
	}{
		{math.Inf(-1), 0},
		{-1, 0},
		{0, 0},
		{math.SmallestNonzeroFloat64, 1},
		{0.05, 50},
		{0.25, 250},
		{20.0 / 6, 3334},
		{math.Inf(1), math.MaxInt64},
		{math.NaN(), math.MaxInt64},
	} {
		if got := TickOf(tc.t); got != tc.want {
			t.Errorf("TickOf(%v) = %d, want %d", tc.t, got, tc.want)
		}
	}
	// The defining bracket holds for arbitrary times.
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		x := r.Float64() * math.Pow(10, float64(r.Intn(8)-2))
		k := TickOf(x)
		if !(Time(k-1) < x && x <= Time(k)) {
			t.Fatalf("TickOf(%v) = %d: want Time(k-1)=%v < t <= Time(k)=%v", x, k, Time(k-1), Time(k))
		}
	}
}

// bulkApp is a quietApp that also bulk-quiesces, so SkipQuiescent can
// advance a machine running it.
type bulkApp struct{ quietApp }

func (a *bulkApp) CanQuiesceN(k int) bool { return a.amp == 0 }
func (a *bulkApp) AdvanceQuiescedN(k int) { a.k += k }

// TestClockTicksProperty drives machines through random mixes of Step,
// StepN, AdvanceIdle and SkipQuiescent: however the ticks were grouped,
// Now() is float64(ticks)*DT bit for bit.
func TestClockTicksProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for c := 0; c < 40; c++ {
		m := New(platform.GenA())
		if c%2 == 1 {
			app := &bulkApp{quietApp{envApp{class: power.AVXHeavy, util: 0.5, bwGB: 20}}}
			if _, err := m.AddTask(app, Placement{CoreLo: 0, CoreHi: 15}); err != nil {
				t.Fatal(err)
			}
		}
		var ticks int64
		for op := 0; op < 200; op++ {
			k := r.Intn(300)
			switch r.Intn(4) {
			case 0:
				m.Step()
				ticks++
			case 1:
				m.StepN(k)
				ticks += int64(k)
			case 2:
				m.AdvanceIdle(k)
				ticks += int64(k)
			case 3:
				if m.SkipQuiescent(k) {
					ticks += int64(k)
				}
			}
			if m.Tick() != ticks || math.Float64bits(m.Now()) != math.Float64bits(float64(ticks)*DT) {
				t.Fatalf("case %d op %d: Tick() = %d, Now() = %v; want %d ticks, %v s",
					c, op, m.Tick(), m.Now(), ticks, float64(ticks)*DT)
			}
		}
		if m.FFSteps() == 0 {
			t.Fatalf("case %d: no step was replayed or skipped", c)
		}
	}
}

// TestStepToCallsDue checks the shared stepping loop: due runs at the
// start tick and at every tick it names, at least one tick passes per
// call, and the machine stops exactly at end.
func TestStepToCallsDue(t *testing.T) {
	m := New(platform.GenA())
	var calls []int64
	err := m.StepTo(100, func(tick int64) (int64, error) {
		calls = append(calls, tick)
		switch {
		case tick < 10:
			return tick + 7, nil
		case tick < 40:
			return tick, nil // due again now: the loop still advances
		}
		return math.MaxInt64, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Tick() != 100 {
		t.Fatalf("Tick() = %d after StepTo(100)", m.Tick())
	}
	want := []int64{0, 7, 14}
	for k := int64(15); k < 40; k++ {
		want = append(want, k)
	}
	want = append(want, 40)
	if len(calls) != len(want) {
		t.Fatalf("due called at %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("due called at %v, want %v", calls, want)
		}
	}
}
