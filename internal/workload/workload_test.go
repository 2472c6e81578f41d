package workload

import (
	"testing"

	"aum/internal/machine"
	"aum/internal/platform"
)

func env(cores int, ghz, llcMB, bwGBs float64) machine.Env {
	p := platform.GenA()
	return machine.Env{
		Plat: &p, Cores: cores, GHz: ghz, ComputeShare: 1,
		LLCMB: llcMB, L2MB: 64, BWGBs: bwGBs,
	}
}

func TestCatalog(t *testing.T) {
	for _, name := range []string{"Compute", "OLAP", "SPECjbb", "stressor", "mcf", "ads"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Fatalf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if len(CoRunners()) != 3 {
		t.Fatal("Section V-A defines three co-runners")
	}
	// Revenue prices match Section VII-A1.
	if Compute().RevenuePrice != 1e-3 || OLAP().RevenuePrice != 1e-6 || SPECjbb().RevenuePrice != 3e-5 {
		t.Fatal("gamma prices diverge from the paper")
	}
}

func TestRateScaling(t *testing.T) {
	a := New(Compute(), 1)
	base := a.Step(env(16, 3.2, 100, 200), 0, 1).Work
	double := New(Compute(), 1).Step(env(32, 3.2, 100, 200), 0, 1).Work
	if double < base*1.8 {
		t.Fatalf("compute-bound work should scale with cores: %v -> %v", base, double)
	}
	slow := New(Compute(), 1).Step(env(16, 1.6, 100, 200), 0, 1).Work
	if slow > base*0.6 {
		t.Fatalf("compute-bound work should scale with frequency: %v -> %v", base, slow)
	}
	// OLAP is much less frequency sensitive (FreqSens 0.35).
	o1 := New(OLAP(), 1).Step(env(16, 3.2, 300, 200), 0, 1).Work
	o2 := New(OLAP(), 1).Step(env(16, 1.6, 300, 200), 0, 1).Work
	if o2 < o1*0.6 {
		t.Fatalf("OLAP too frequency sensitive: %v -> %v", o1, o2)
	}
}

func TestBandwidthLimit(t *testing.T) {
	free := New(OLAP(), 1).Step(env(32, 3.2, 300, 200), 0, 1)
	starved := New(OLAP(), 1).Step(env(32, 3.2, 300, 5), 0, 1)
	if starved.Work >= free.Work*0.5 {
		t.Fatalf("OLAP not bandwidth-limited: %v vs %v", starved.Work, free.Work)
	}
}

func TestCacheSensitivity(t *testing.T) {
	rich := New(SPECjbb(), 1).Step(env(16, 3.2, 180, 50), 0, 1)
	poor := New(SPECjbb(), 1).Step(env(16, 3.2, 5, 50), 0, 1)
	if poor.DRAMBytes <= rich.DRAMBytes {
		t.Fatal("a starved LLC should raise DRAM traffic")
	}
}

func TestSMTSensExponent(t *testing.T) {
	e := env(16, 3.2, 100, 200)
	e.ComputeShare = 0.6
	jbb := New(SPECjbb(), 1).Step(e, 0, 1).Work
	full := New(SPECjbb(), 1).Step(env(16, 3.2, 100, 200), 0, 1).Work
	// SPECjbb (SMTSens 2.8) collapses super-linearly: 0.6 share keeps
	// well under 0.6 of throughput.
	if jbb > 0.45*full {
		t.Fatalf("SPECjbb SMT collapse too mild: %.2f of full", jbb/full)
	}
}

func TestBreakdownValidity(t *testing.T) {
	for _, p := range []Profile{Compute(), OLAP(), SPECjbb(), MCF(), Ads()} {
		u := New(p, 2).Step(env(16, 3.2, 100, 100), 0, 1)
		if err := u.Breakdown.Valid(1e-6); err != nil {
			t.Fatalf("%s breakdown: %v", p.Name, err)
		}
	}
}

func TestCharacterizationShapes(t *testing.T) {
	// Figure 7: ads is frontend-heavy, mcf is backend/memory heavy.
	ads := New(Ads(), 3).Step(env(16, 3.2, 60, 100), 0, 1).Breakdown
	mcf := New(MCF(), 3).Step(env(16, 3.2, 60, 100), 0, 1).Breakdown
	if ads.FrontendBound < 3*mcf.FrontendBound {
		t.Fatalf("ads FE bound (%.2f) should dwarf mcf's (%.2f)", ads.FrontendBound, mcf.FrontendBound)
	}
	if mcf.BackendBound <= ads.BackendBound {
		t.Fatal("mcf should be more backend bound than ads")
	}
}

func TestBurstModulation(t *testing.T) {
	a := New(SPECjbb(), 7)
	e := env(16, 3.2, 100, 100)
	minW, maxW := 1e18, 0.0
	for i := 0; i < 2000; i++ {
		w := a.Step(e, float64(i)*1e-2, 1e-2).Work
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	if maxW < minW*1.3 {
		t.Fatalf("SPECjbb burstiness missing: min=%v max=%v", minW, maxW)
	}
}

func TestAUAppSpeedups(t *testing.T) {
	plat := platform.GenC()
	for _, app := range AUApps() {
		sp := app.Speedup(plat, 512, 16, 32)
		if sp <= 1 {
			t.Fatalf("%s AU speedup = %.2f, want > 1", app.Name, sp)
		}
		if sp > 30 {
			t.Fatalf("%s AU speedup = %.2f implausibly large", app.Name, sp)
		}
	}
	// Figure 4 ordering: compute-bound Vocoder gains more than
	// embedding-bound DeepFM.
	v := Vocoder().Speedup(plat, 512, 16, 32)
	d := DeepFM().Speedup(plat, 512, 16, 32)
	if v <= d {
		t.Fatalf("Vocoder (%.2f) should out-speed DeepFM (%.2f)", v, d)
	}
	// Larger batches improve tile efficiency for batch-M apps.
	f1 := Faiss().Speedup(plat, 512, 1, 32)
	f64 := Faiss().Speedup(plat, 512, 64, 32)
	if f64 <= f1 {
		t.Fatalf("Faiss speedup should grow with batch: bs1=%.2f bs64=%.2f", f1, f64)
	}
}

func TestAUServiceServesQueries(t *testing.T) {
	svc := NewAUService(Faiss(), 512, 16, 200, 0.05, 7)
	m := machine.New(platform.GenC())
	id, err := m.AddTask(svc, machine.Placement{CoreLo: 0, CoreHi: 59, SMTSlot: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		m.Step(1e-3)
	}
	if svc.QueriesDone < 300 {
		t.Fatalf("served only %d queries in 4 s at 200/s", svc.QueriesDone)
	}
	if g := svc.GuaranteeRatio(); g < 0.5 {
		t.Fatalf("well-provisioned service guarantee = %v", g)
	}
	if svc.MeanLatencyS() <= 0 {
		t.Fatal("latency not tracked")
	}
	st, _ := m.Stats(id)
	if st.AMXFlops <= 0 || st.AMXCycleRatio() <= 0 {
		t.Fatal("service did not exercise the AU")
	}
}

func TestAUServiceDegradesWhenStarved(t *testing.T) {
	// At 3000 q/s a 4-core region saturates (capacity ~1600 q/s)
	// while a 60-core region absorbs the load easily.
	rich := NewAUService(Vocoder(), 256, 4, 3000, 0.01, 7)
	poor := NewAUService(Vocoder(), 256, 4, 3000, 0.01, 7)

	mRich := machine.New(platform.GenC())
	mRich.AddTask(rich, machine.Placement{CoreLo: 0, CoreHi: 59, SMTSlot: 0})
	mPoor := machine.New(platform.GenC())
	mPoor.AddTask(poor, machine.Placement{CoreLo: 0, CoreHi: 3, SMTSlot: 0})
	for i := 0; i < 3000; i++ {
		mRich.Step(1e-3)
		mPoor.Step(1e-3)
	}
	if poor.GuaranteeRatio() >= rich.GuaranteeRatio() {
		t.Fatalf("4-core service (%v) should violate more than 60-core (%v)",
			poor.GuaranteeRatio(), rich.GuaranteeRatio())
	}
	if rich.GuaranteeRatio() < 0.8 {
		t.Fatalf("60-core service guarantee only %v", rich.GuaranteeRatio())
	}
}

func TestIntensitySurge(t *testing.T) {
	e := env(16, 3.2, 100, 400)
	a := New(Compute(), 1)
	base := a.Step(e, 0, 1).Work
	a.SetIntensity(2)
	if a.Intensity() != 2 {
		t.Fatalf("intensity = %v", a.Intensity())
	}
	surged := a.Step(e, 1, 1).Work
	if surged < 1.5*base {
		t.Fatalf("surge did not raise work: %v vs %v", surged, base)
	}
	a.SetIntensity(-3) // ignored
	if a.Intensity() != 2 {
		t.Fatal("non-positive intensity accepted")
	}
	a.SetIntensity(1)
	back := a.Step(e, 2, 1).Work
	if back < 0.9*base || back > 1.1*base {
		t.Fatalf("intensity not restored: %v vs %v", back, base)
	}
}

func TestPhaseFlip(t *testing.T) {
	e := env(16, 3.2, 40, 400)
	a := New(SPECjbb(), 1)
	baseBW := a.Demand(e).BWGBs
	orig := a.Profile()

	a.FlipPhase()
	if !a.PhaseFlipped() {
		t.Fatal("flip not recorded")
	}
	flipBW := a.Demand(e).BWGBs
	if flipBW <= 1.5*baseBW {
		t.Fatalf("flipped phase not more memory-hungry: %v vs %v", flipBW, baseBW)
	}
	if a.Profile().Util <= orig.Util {
		t.Fatal("flipped phase should raise utilization")
	}

	// Flipping again restores the profiled behaviour exactly.
	a.FlipPhase()
	if a.PhaseFlipped() {
		t.Fatal("second flip did not restore")
	}
	if a.Profile() != orig {
		t.Fatalf("profile not restored: %+v", a.Profile())
	}
}
