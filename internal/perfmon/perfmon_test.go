package perfmon

import (
	"math"
	"testing"

	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/power"
)

type avxApp struct{}

func (a *avxApp) Name() string { return "avx" }
func (a *avxApp) Demand(machine.Env) machine.Demand {
	return machine.Demand{Class: power.AVXHeavy, Util: 0.6, BWGBs: 10}
}
func (a *avxApp) Step(env machine.Env, now, dt float64) machine.Usage {
	return machine.Usage{Work: dt, AMXBusy: 0.1, AVXBusy: 0.4, Flops: 1e9 * dt, AMXFlops: 4e8 * dt}
}

func TestUsageMetrics(t *testing.T) {
	m := machine.New(platform.GenA())
	id, _ := m.AddTask(&avxApp{}, machine.Placement{CoreLo: 0, CoreHi: 3, SMTSlot: 0})
	for i := 0; i < 50; i++ {
		m.Step(1e-3)
	}
	st, _ := m.Stats(id)
	u := Usage(st)
	if math.Abs(u.AMXCycleRatio-0.1) > 1e-9 {
		t.Fatalf("AMX cycle ratio = %v", u.AMXCycleRatio)
	}
	if math.Abs(u.AVXCycleRatio-0.4) > 1e-9 {
		t.Fatalf("AVX cycle ratio = %v", u.AVXCycleRatio)
	}
	if math.Abs(u.FPAMXRatio-0.4) > 1e-9 {
		t.Fatalf("FP AMX ratio = %v", u.FPAMXRatio)
	}
}

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
