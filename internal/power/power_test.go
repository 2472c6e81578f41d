package power

import (
	"testing"
	"testing/quick"

	"aum/internal/platform"
)

func TestLicenseFrequencies(t *testing.T) {
	g := NewGovernor(platform.GenA())
	// Figure 6a anchors: all-core prefill ~2.5 GHz, all-core decode
	// ~3.1 GHz, scalar at turbo.
	sol := g.Solve([]RegionLoad{{Cores: 96, Class: AMXHeavy, Util: 0.95}}, 0)
	if sol.FreqGHz[0] != 2.5 {
		t.Fatalf("all-core prefill = %.1f GHz, want 2.5", sol.FreqGHz[0])
	}
	sol = g.Solve([]RegionLoad{{Cores: 96, Class: AVXHeavy, Util: 0.63}}, 0)
	if sol.FreqGHz[0] != 3.1 {
		t.Fatalf("all-core decode = %.1f GHz, want 3.1", sol.FreqGHz[0])
	}
	sol = g.Solve([]RegionLoad{{Cores: 48, Class: Scalar, Util: 0.9}}, 0)
	if sol.FreqGHz[0] != 3.2 {
		t.Fatalf("scalar = %.1f GHz, want 3.2 turbo", sol.FreqGHz[0])
	}
}

func TestTDPRespected(t *testing.T) {
	p := platform.GenA()
	g := NewGovernor(p)
	f := func(c1, c2 uint8, u1, u2 float64) bool {
		clamp := func(v float64) float64 {
			if v < 0 {
				v = -v
			}
			for v > 1 {
				v /= 10
			}
			return v
		}
		n1 := int(c1)%80 + 1
		n2 := int(c2) % (p.Cores - n1 + 1)
		loads := []RegionLoad{{Cores: n1, Class: AMXHeavy, Util: clamp(u1)}}
		if n2 > 0 {
			loads = append(loads, RegionLoad{Cores: n2, Class: Scalar, Util: clamp(u2)})
		}
		sol := g.Solve(loads, 0)
		// Unless the floor binds, the solution respects the TDP.
		atFloor := true
		for _, fq := range sol.FreqGHz {
			if fq > MinGHz {
				atFloor = false
			}
		}
		return atFloor || sol.PackageWatts <= p.TDPWatts*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestStressorsThrottleAUFirst(t *testing.T) {
	p := platform.GenA()
	g := NewGovernor(p)
	sol := g.Solve([]RegionLoad{
		{Cores: 24, Class: AVXHeavy, Util: 0.63},
		{Cores: 72, Class: Scalar, Util: 1.0},
	}, 0)
	// Figure 6a: the AU cores shed frequency; the AU-disabled stressor
	// cores stay at (or near) turbo.
	if sol.FreqGHz[0] >= p.License.AVXHeavy {
		t.Fatalf("decode under stressors kept license frequency %.1f", sol.FreqGHz[0])
	}
	if sol.FreqGHz[1] < p.License.Scalar-0.21 {
		t.Fatalf("stressor cores dropped to %.1f GHz", sol.FreqGHz[1])
	}
}

func TestThrottleSpreadsUnderSustainedOverload(t *testing.T) {
	p := platform.GenA()
	g := NewGovernor(p)
	sol := g.Solve([]RegionLoad{
		{Cores: 8, Class: AMXHeavy, Util: 0.95},
		{Cores: 88, Class: Scalar, Util: 1.0},
	}, 0)
	// The squared priority decay must not starve the small AU region to
	// the floor while scalar cores run free.
	if sol.FreqGHz[0] < 1.8 {
		t.Fatalf("AU region starved to %.1f GHz", sol.FreqGHz[0])
	}
}

func TestHotspotWindow(t *testing.T) {
	p := platform.GenA()
	g := NewGovernor(p)
	// An SMT-shared compute-heavy cluster in the 12-24 core window takes
	// extra steps (Figure 6b's abrupt drops).
	in := g.Solve([]RegionLoad{
		{Cores: 16, Class: AVXHeavy, Util: 1.6},
		{Cores: 80, Class: AVXHeavy, Util: 0.63},
	}, 0)
	// FreqGHz aliases governor scratch: copy out before the next Solve.
	inGHz := in.FreqGHz[0]
	out := g.Solve([]RegionLoad{
		{Cores: 32, Class: AVXHeavy, Util: 1.6},
		{Cores: 64, Class: AVXHeavy, Util: 0.63},
	}, 0)
	if !in.Hotspot {
		t.Fatal("hotspot did not fire for a 16-core hot cluster")
	}
	if inGHz >= out.FreqGHz[0] {
		t.Fatalf("16-core cluster (%.1f) should run below 32-core (%.1f)", inGHz, out.FreqGHz[0])
	}
}

func TestLowUtilAMXKeepsAVXLicense(t *testing.T) {
	p := platform.GenA()
	g := NewGovernor(p)
	sol := g.Solve([]RegionLoad{{Cores: 48, Class: AMXHeavy, Util: 0.2}}, 0)
	if sol.FreqGHz[0] != p.License.AVXHeavy {
		t.Fatalf("light AMX duty = %.1f GHz, want AVX license %.1f", sol.FreqGHz[0], p.License.AVXHeavy)
	}
}

func TestCoreWatts(t *testing.T) {
	p := platform.GenA()
	if CoreWatts(&p, Idle, 0, 3.2) != p.IdleCoreW {
		t.Fatal("idle core should draw idle power")
	}
	if CoreWatts(&p, AMXHeavy, 1, 2.5) <= CoreWatts(&p, AVXHeavy, 1, 2.5) {
		t.Fatal("AMX activity should draw more than AVX at equal freq")
	}
	if CoreWatts(&p, Scalar, 1, 3.2) <= CoreWatts(&p, Scalar, 1, 1.6) {
		t.Fatal("power must grow with frequency")
	}
	// PowerScale discounts newer processes.
	c := platform.GenC()
	scaled := CoreWatts(&c, Scalar, 1, c.BaseGHz)
	c.PowerScale = 1
	if full := CoreWatts(&c, Scalar, 1, c.BaseGHz); scaled >= full {
		t.Fatal("PowerScale not applied")
	}
}

func TestThermalHysteresis(t *testing.T) {
	p := platform.GenA()
	g := NewGovernor(p)
	loads := []RegionLoad{{Cores: 96, Class: AMXHeavy, Util: 0.95}}
	// FreqGHz aliases governor scratch: copy out before the next Solve.
	firstGHz := g.Solve(loads, 0.05).FreqGHz[0]
	var last Solution
	for i := 0; i < 200; i++ {
		last = g.Solve(loads, 0.05)
	}
	if last.FreqGHz[0] > firstGHz {
		t.Fatal("sustained near-TDP load should not raise frequency")
	}
}
