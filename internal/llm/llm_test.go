package llm

import (
	"math"
	"testing"
	"testing/quick"

	"aum/internal/machine"
	"aum/internal/platform"
)

func genAEnv(cores int, ghz, bwFrac float64) machine.Env {
	p := platform.GenA()
	return machine.Env{
		Plat: &p, Cores: cores, GHz: ghz, ComputeShare: 1,
		LLCMB: p.TotalLLCMB(), L2MB: 96, BWGBs: p.MemBWGBs * bwFrac,
	}
}

func TestZooParameters(t *testing.T) {
	m := Llama2_7B()
	// Llama2-7B has ~6.7B parameters; the linear projections alone are
	// ~6.5B.
	if p := m.TotalParams(); p < 6.4e9 || p > 7.1e9 {
		t.Fatalf("llama2-7b params = %.2e", p)
	}
	if m.KVBytesPerToken() != 2*4096*32*2 {
		t.Fatalf("KV bytes/token = %v", m.KVBytesPerToken())
	}
	for _, mm := range Zoo() {
		if mm.TotalParams() <= 0 || mm.LinearParams() <= 0 {
			t.Errorf("%s has non-positive params", mm.Name)
		}
		if _, err := ByName(mm.Name); err != nil {
			t.Errorf("ByName(%s): %v", mm.Name, err)
		}
	}
	if _, err := ByName("gpt-5"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestMoECoverage(t *testing.T) {
	q := Qwen3_30B_A3B()
	if q.Dense() {
		t.Fatal("qwen3 should be MoE")
	}
	c1, c16 := q.expertCoverage(1), q.expertCoverage(16)
	if c1 <= 0 || c1 >= 1 || c16 <= c1 || c16 >= 1 {
		t.Fatalf("expert coverage not sensible: c1=%v c16=%v", c1, c16)
	}
	// MoE active params are far below total (30B vs ~3B active).
	if q.LinearParams() > q.TotalParams()/3 {
		t.Fatalf("MoE active linear params too large: %v of %v", q.LinearParams(), q.TotalParams())
	}
	if Llama2_7B().expertCoverage(16) != 1 {
		t.Fatal("dense coverage must be 1")
	}
}

func TestPlanARIOrdering(t *testing.T) {
	m := Llama2_7B()
	pre := m.PlanPrefill(16, 512)
	dec := m.PlanDecode(16, 600)
	// Variation-1: prefill operators have orders-of-magnitude higher
	// arithmetic intensity than decode.
	if pre.ARI() < 50*dec.ARI() {
		t.Fatalf("prefill ARI %v vs decode %v: separation too small", pre.ARI(), dec.ARI())
	}
}

func TestTableIICalibration(t *testing.T) {
	m := Llama2_7B()
	pre := m.PlanPrefill(16, 512)
	dec := m.PlanDecode(16, 600)
	cp := CostIteration(pre, genAEnv(48, 2.5, 0.4))
	cd := CostIteration(dec, genAEnv(32, 3.1, 0.85))

	// tma_amx_busy: paper 14.4% prefill / 1.5% decode.
	if cp.AMXBusy < 0.10 || cp.AMXBusy > 0.25 {
		t.Fatalf("prefill AMX busy = %.3f, want ~0.14-0.18", cp.AMXBusy)
	}
	if cd.AMXBusy < 0.005 || cd.AMXBusy > 0.03 {
		t.Fatalf("decode AMX busy = %.3f, want ~0.015", cd.AMXBusy)
	}
	// Decode leans on AVX (Section IV-A1).
	if cd.AVXBusy <= cd.AMXBusy {
		t.Fatal("decode should be AVX-leaning")
	}
	// Backend bound: paper 92/96.
	if cp.Breakdown.BackendBound < 0.85 || cd.Breakdown.BackendBound < 0.80 {
		t.Fatalf("backend bounds too low: %.2f / %.2f",
			cp.Breakdown.BackendBound, cd.Breakdown.BackendBound)
	}
	// DRAM bound: decode much higher than prefill (24 vs 59).
	if cd.Breakdown.DRAMBound < 1.5*cp.Breakdown.DRAMBound {
		t.Fatalf("decode DRAM bound (%.2f) should far exceed prefill (%.2f)",
			cd.Breakdown.DRAMBound, cp.Breakdown.DRAMBound)
	}
	// Decode DRAM stalls are bandwidth- not latency-dominated.
	if cd.Breakdown.DRAMBandwidth <= cd.Breakdown.DRAMLatency {
		t.Fatal("decode DRAM stalls should be bandwidth-dominated")
	}
	// Breakdowns internally consistent.
	if err := cp.Breakdown.Valid(1e-6); err != nil {
		t.Fatalf("prefill breakdown: %v", err)
	}
	if err := cd.Breakdown.Valid(1e-6); err != nil {
		t.Fatalf("decode breakdown: %v", err)
	}
}

func TestModelSizeTrends(t *testing.T) {
	// Table II: larger dense models have lower AMX busy and higher DRAM
	// bound in prefill; the MoE model has the lowest decode DRAM bound.
	envP := genAEnv(48, 2.5, 0.4)
	small := CostIteration(Phi3Mini().PlanPrefill(16, 512), envP)
	large := CostIteration(Llama2_13B().PlanPrefill(16, 512), envP)
	if small.AMXBusy <= large.AMXBusy {
		t.Fatalf("smaller model should have higher AMX busy: %.3f vs %.3f", small.AMXBusy, large.AMXBusy)
	}
	if small.Breakdown.DRAMBound >= large.Breakdown.DRAMBound {
		t.Fatal("larger model should be more DRAM bound in prefill")
	}
	envD := genAEnv(32, 3.1, 0.85)
	dense := CostIteration(Llama2_7B().PlanDecode(16, 600), envD)
	moe := CostIteration(Qwen3_30B_A3B().PlanDecode(16, 600), envD)
	if moe.Breakdown.DRAMBound >= dense.Breakdown.DRAMBound {
		t.Fatal("MoE should relieve decode memory pressure (Table II)")
	}
}

func TestDecodeThroughputCalibration(t *testing.T) {
	// GenA serves llama2-7b at ~188 tokens/s (Section III-B): one
	// decode iteration of batch 16 lands in the 75-95 ms range.
	m := Llama2_7B()
	c := CostIteration(m.PlanDecode(16, 600), genAEnv(32, 3.1, 0.9))
	tps := 16 / c.TotalS
	if tps < 150 || tps > 240 {
		t.Fatalf("decode throughput = %.0f tok/s, want ~190", tps)
	}
}

func TestCostMonotoneInResources(t *testing.T) {
	m := Llama2_7B()
	pre := m.PlanPrefill(4, 512)
	f := func(coreSel, bwSel uint8) bool {
		c1 := int(coreSel%40) + 8
		b1 := 0.2 + float64(bwSel%60)/100
		t1 := CostIteration(pre, genAEnv(c1, 2.5, b1)).TotalS
		t2 := CostIteration(pre, genAEnv(c1+8, 2.5, b1)).TotalS
		t3 := CostIteration(pre, genAEnv(c1, 2.5, b1+0.2)).TotalS
		return t2 <= t1*1.0001 && t3 <= t1*1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLLCSensitivity(t *testing.T) {
	m := Llama2_7B()
	pre := m.PlanPrefill(8, 512)
	envSmall := genAEnv(48, 2.5, 0.5)
	envSmall.LLCMB = 13
	envBig := genAEnv(48, 2.5, 0.5)
	tSmall := CostIteration(pre, envSmall).TotalS
	tBig := CostIteration(pre, envBig).TotalS
	if tSmall <= tBig {
		t.Fatal("prefill should slow down with a starved LLC (Figure 13)")
	}
	if tSmall > tBig*1.35 {
		t.Fatalf("LLC sensitivity too extreme: %.2fx", tSmall/tBig)
	}
}

func TestDemandOf(t *testing.T) {
	m := Llama2_7B()
	dec := m.PlanDecode(16, 600)
	pre := m.PlanPrefill(1, 755)
	env := genAEnv(32, 3.1, 1)
	if DemandOf(dec, env) <= DemandOf(pre, env) {
		t.Fatal("decode bandwidth appetite should exceed prefill's")
	}
	if d := DemandOf(dec, env); math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
		t.Fatalf("invalid demand %v", d)
	}
}

func TestPhaseString(t *testing.T) {
	if Prefill.String() != "prefill" || Decode.String() != "decode" {
		t.Fatal("phase names")
	}
}

func TestPlanClamping(t *testing.T) {
	m := Llama2_7B()
	p := m.PlanPrefill(0, 0)
	if p.Batch != 1 || p.SeqLen != 1 {
		t.Fatal("prefill plan did not clamp degenerate inputs")
	}
	d := m.PlanDecode(-3, -1)
	if d.Batch != 1 || d.SeqLen != 1 {
		t.Fatal("decode plan did not clamp degenerate inputs")
	}
}
