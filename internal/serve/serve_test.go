package serve

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/perfmon"
	"aum/internal/platform"
)

func testConfig() Config {
	return Config{
		Model: llm.Llama2_7B(),
		SLO:   SLO{TTFT: 0.25, TPOT: 0.10},
	}
}

func fullEnv(cores int, ghz float64) machine.Env {
	p := platform.GenA()
	return machine.Env{Plat: &p, Cores: cores, GHz: ghz, ComputeShare: 1,
		LLCMB: p.TotalLLCMB(), L2MB: 96, BWGBs: p.MemBWGBs}
}

func TestSubmitValidation(t *testing.T) {
	e := NewEngine(testConfig())
	if err := e.Submit(&Request{ID: 1, PromptLen: 0, OutputLen: 5}); err == nil {
		t.Fatal("empty prompt accepted")
	}
	if err := e.Submit(&Request{ID: 1, PromptLen: 5, OutputLen: 0}); err == nil {
		t.Fatal("zero output accepted")
	}
	if err := e.Submit(&Request{ID: 1, PromptLen: 100, OutputLen: 10}); err != nil {
		t.Fatal(err)
	}
	if e.QueueLen() != 1 {
		t.Fatal("queue length")
	}
}

// runEngine drives both workers for the given number of 1 ms steps.
func runEngine(e *Engine, steps int, cores int) {
	envP := fullEnv(cores, 2.5)
	envD := fullEnv(cores, 3.1)
	for i := 0; i < steps; i++ {
		now := machine.Time(int64(i))
		e.PrefillWorker().Step(envP, now)
		e.DecodeWorker().Step(envD, now)
	}
}

func TestEndToEndRequest(t *testing.T) {
	e := NewEngine(testConfig())
	r := &Request{ID: 1, Arrival: 0, PromptLen: 256, OutputLen: 4}
	if err := e.Submit(r); err != nil {
		t.Fatal(err)
	}
	runEngine(e, 2000, 48)
	if !r.Done {
		t.Fatalf("request not finished: tokens=%d", r.TokensDone)
	}
	if r.TokensDone != 4 {
		t.Fatalf("tokens done = %d, want 4", r.TokensDone)
	}
	if r.TTFT() <= 0 {
		t.Fatal("TTFT not recorded")
	}
	st := e.Stats()
	if st.PrefillRequests != 1 || st.DecodeTokens != 3 {
		t.Fatalf("stats: prefills=%d decode=%v", st.PrefillRequests, st.DecodeTokens)
	}
	if st.PrefillTokens != 256 {
		t.Fatalf("prefill tokens = %v", st.PrefillTokens)
	}
}

func TestFCFSOrder(t *testing.T) {
	e := NewEngine(testConfig())
	a := &Request{ID: 1, Arrival: 0, PromptLen: 512, OutputLen: 2}
	b := &Request{ID: 2, Arrival: 0.001, PromptLen: 64, OutputLen: 2}
	e.Submit(a)
	e.Submit(b)
	runEngine(e, 3000, 48)
	if !(a.FirstToken < b.FirstToken) {
		t.Fatalf("FCFS violated: a@%v b@%v", a.FirstToken, b.FirstToken)
	}
}

func TestContinuousBatchingCap(t *testing.T) {
	e := NewEngine(testConfig())
	const n = 3 * MaxBatch
	for i := 0; i < n; i++ {
		e.Submit(&Request{ID: i, Arrival: 0, PromptLen: 64, OutputLen: 20})
	}
	envP := fullEnv(48, 2.5)
	envD := fullEnv(48, 3.1)
	peak := 0
	for i := 0; i < 8000; i++ {
		now := machine.Time(int64(i))
		e.PrefillWorker().Step(envP, now)
		e.DecodeWorker().Step(envD, now)
		if e.DecodeBatch() > MaxBatch {
			t.Fatalf("decode batch %d exceeds cap %d", e.DecodeBatch(), MaxBatch)
		}
		peak = max(peak, e.DecodeBatch())
	}
	if peak != MaxBatch {
		t.Fatalf("decode batch peaked at %d, never reached the cap %d", peak, MaxBatch)
	}
	// Backlog admission must eventually drain all requests.
	if e.Stats().FinishedOutput != n {
		t.Fatalf("finished %d of %d", e.Stats().FinishedOutput, n)
	}
}

func TestLAGInvariant(t *testing.T) {
	// Algorithm 1 line 3: after a request produces k decode tokens,
	// LAG = k*d_TPOT - (time span of those tokens).
	e := NewEngine(testConfig())
	r := &Request{ID: 1, Arrival: 0, PromptLen: 128, OutputLen: 8}
	e.Submit(r)
	runEngine(e, 3000, 48)
	if !r.Done {
		t.Fatal("request unfinished")
	}
	k := float64(r.TokensDone - 1) // decode tokens
	span := r.LastTokenAt - r.FirstToken
	want := k*e.cfg.SLO.TPOT - span
	if math.Abs(r.LAG-want) > 1e-9 {
		t.Fatalf("LAG = %v, want %v (telescoping invariant)", r.LAG, want)
	}
}

func TestRuntimeSLOs(t *testing.T) {
	e := NewEngine(testConfig())
	sloH, sloL := e.RuntimeSLOs(0)
	if sloH != e.cfg.SLO.TTFT || sloL != e.cfg.SLO.TPOT {
		t.Fatal("idle engine should report static SLOs")
	}
	// A queued request that has waited shrinks SLO_H (line 1).
	e.Submit(&Request{ID: 1, Arrival: 0, PromptLen: 64, OutputLen: 2})
	sloH, _ = e.RuntimeSLOs(0.2)
	if math.Abs(sloH-0.05) > 1e-9 {
		t.Fatalf("SLO_H = %v, want 0.05 after 200 ms wait", sloH)
	}
	// Never negative.
	sloH, _ = e.RuntimeSLOs(10)
	if sloH <= 0 {
		t.Fatal("SLO_H must stay positive")
	}
}

func TestScaledDeadline(t *testing.T) {
	slo := SLO{TTFT: 0.25, TPOT: 0.1}
	// Short prompt: the scaled form applies.
	if d := slo.ScaledTTFTDeadline(1000); d <= slo.TTFT {
		t.Fatalf("scaled deadline %v should exceed the absolute SLO for long prompts", d)
	}
	// Generous absolute SLO floors the deadline (the sm scenario).
	loose := SLO{TTFT: 1.5, TPOT: 0.1}
	if d := loose.ScaledTTFTDeadline(100); d != 1.5 {
		t.Fatalf("deadline %v, want the 1.5 s absolute floor", d)
	}
	f := func(n uint16) bool {
		d := slo.ScaledTTFTDeadline(int(n))
		return d >= slo.TTFT && d >= float64(n)*TTFTPerTokenS
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGuaranteeBounds(t *testing.T) {
	e := NewEngine(testConfig())
	for i := 0; i < 6; i++ {
		e.Submit(&Request{ID: i, Arrival: float64(i) * 0.05, PromptLen: 300 + 100*i, OutputLen: 5})
	}
	runEngine(e, 6000, 48)
	st := e.Stats()
	for name, v := range map[string]float64{
		"ttft":       st.TTFTGuarantee(),
		"ttftScaled": st.TTFTGuaranteeScaled(),
		"tpot":       st.TPOTGuarantee(),
	} {
		if v < 0 || v > 1 {
			t.Fatalf("%s guarantee out of [0,1]: %v", name, v)
		}
	}
	if st.MeanTTFT() <= 0 || st.MeanTPOT() <= 0 {
		t.Fatal("means not recorded")
	}
	if st.TailTPOT(90) < st.TailTPOT(10) {
		t.Fatal("percentiles inverted")
	}
}

func TestWorkerIdleSpins(t *testing.T) {
	e := NewEngine(testConfig())
	env := fullEnv(48, 3.2)
	d := e.PrefillWorker().Demand(env)
	// A starved worker spins at scalar power (the exclusive-waste
	// effect of Section III-B), not idle.
	if d.Util <= 0 {
		t.Fatal("starved worker should report spin utilization")
	}
	u := e.PrefillWorker().Step(env, 0)
	if u.Work != 0 {
		t.Fatal("starved worker produced work")
	}
}

func TestStatsClone(t *testing.T) {
	e := NewEngine(testConfig())
	e.Submit(&Request{ID: 1, Arrival: 0, PromptLen: 100, OutputLen: 3})
	runEngine(e, 1500, 48)
	snap := e.Stats().Clone()
	before := snap.DecodeTokens
	e.Submit(&Request{ID: 2, Arrival: 1.5, PromptLen: 100, OutputLen: 3})
	runEngine(e, 1500, 48)
	if snap.DecodeTokens != before {
		t.Fatal("clone aliased live stats")
	}
	if e.Stats().DecodeTokens <= before {
		t.Fatal("live stats did not advance")
	}
}

func TestBacklogAdmissionFIFO(t *testing.T) {
	// When the decode batch is full, prefilled requests wait in the
	// admission backlog and must join the batch in FIFO order.
	e := NewEngine(testConfig())
	// A full batch in which only request 2 finishes at the next token.
	for i := 0; i < MaxBatch; i++ {
		out := 100
		if i == 0 {
			out = 2
		}
		e.decodeSet = append(e.decodeSet, &Request{ID: 2 - i, PromptLen: 8, OutputLen: out,
			FirstToken: 0.1, LastTokenAt: 0.1, TokensDone: 1})
	}
	// Three prefills complete while the batch is full.
	for i := 3; i <= 5; i++ {
		r := &Request{ID: i, PromptLen: 8, OutputLen: 3}
		e.onPrefillDone(&job{reqs: []*Request{r}}, 0.2)
	}
	if len(e.admitBacklog) != 3 {
		t.Fatalf("backlog = %d, want 3", len(e.admitBacklog))
	}
	// One decode iteration retires request 2, freeing exactly one slot.
	e.onDecodeDone(&job{reqs: append([]*Request(nil), e.decodeSet...)}, 0.3)
	if got := e.decodeSet[len(e.decodeSet)-1].ID; got != 3 {
		t.Fatalf("admitted request %d, want 3 (FIFO head of backlog)", got)
	}
	if len(e.admitBacklog) != 2 || e.admitBacklog[0].ID != 4 || e.admitBacklog[1].ID != 5 {
		t.Fatalf("backlog order broken: %+v", e.admitBacklog)
	}
}

func TestEarlyRetirementSingleToken(t *testing.T) {
	// OutputLen == 1: the prefill's first token is the whole response,
	// so the request retires without ever entering the decode batch.
	e := NewEngine(testConfig())
	r := &Request{ID: 1, Arrival: 0, PromptLen: 64, OutputLen: 1}
	e.Submit(r)
	runEngine(e, 1000, 48)
	if !r.Done {
		t.Fatal("single-token request unfinished")
	}
	if e.DecodeBatch() != 0 {
		t.Fatal("single-token request entered the decode batch")
	}
	st := e.Stats()
	if st.FinishedOutput != 1 || st.DecodeTokens != 0 {
		t.Fatalf("stats: finished=%d decode=%v", st.FinishedOutput, st.DecodeTokens)
	}
}

func TestRuntimeSLOClamp(t *testing.T) {
	e := NewEngine(testConfig())
	// Head-of-line wait far beyond d_TTFT: SLO_H clamps at the 1e-3
	// floor instead of going negative.
	e.Submit(&Request{ID: 1, Arrival: 0, PromptLen: 64, OutputLen: 2})
	sloH, _ := e.RuntimeSLOs(100)
	if sloH != 1e-3 {
		t.Fatalf("SLO_H = %v, want the 1e-3 floor", sloH)
	}
	// A decode request hopelessly behind schedule clamps SLO_L too.
	e.decodeSet = append(e.decodeSet, &Request{ID: 2, PromptLen: 8, OutputLen: 10, LAG: -5})
	_, sloL := e.RuntimeSLOs(100)
	if sloL != 1e-3 {
		t.Fatalf("SLO_L = %v, want the 1e-3 floor", sloL)
	}
}

func TestAdmissionMaxQueue(t *testing.T) {
	cfg := testConfig()
	cfg.Admission.MaxQueue = 2
	e := NewEngine(cfg)
	for i := 0; i < 5; i++ {
		if err := e.Submit(&Request{ID: i, PromptLen: 8, OutputLen: 2}); err != nil {
			t.Fatal(err)
		}
	}
	if e.QueueLen() != 2 {
		t.Fatalf("queue = %d, want 2", e.QueueLen())
	}
	if e.Stats().Rejected != 3 {
		t.Fatalf("rejected = %d, want 3", e.Stats().Rejected)
	}
}

func TestBoundedBacklog(t *testing.T) {
	if maxBacklog != 64 {
		t.Fatalf("backlog bound = %d, want 4x MaxBatch = 64", maxBacklog)
	}
	e := NewEngine(testConfig())
	for i := 0; i < MaxBatch; i++ {
		e.decodeSet = append(e.decodeSet, &Request{ID: -i, PromptLen: 8, OutputLen: 100, TokensDone: 1})
	}
	for i := 1; i <= maxBacklog+2; i++ {
		r := &Request{ID: i, PromptLen: 8, OutputLen: 3}
		e.onPrefillDone(&job{reqs: []*Request{r}}, 0.1)
	}
	if len(e.admitBacklog) != maxBacklog {
		t.Fatalf("backlog = %d, want bound %d", len(e.admitBacklog), maxBacklog)
	}
	if e.Stats().BacklogDropped != 2 {
		t.Fatalf("backlogDropped = %d, want 2", e.Stats().BacklogDropped)
	}
	// The shed requests are the two that arrived past the bound.
	if last := e.admitBacklog[maxBacklog-1].ID; last != maxBacklog {
		t.Fatalf("last backlogged request %d, want %d", last, maxBacklog)
	}
}

// TestWindowTailsMatchSlidingCopy checks the ring window against the
// sliding window it replaced, which appended each sample and copied
// the last maxRecent down once full: over 5000 pushes, past wrapping
// the ring more than once, TailTTFT and TailTPOT agree bit for bit.
func TestWindowTailsMatchSlidingCopy(t *testing.T) {
	slide := func(s []float64, v float64) []float64 {
		s = append(s, v)
		if len(s) > maxRecent {
			copy(s, s[len(s)-maxRecent:])
			s = s[:maxRecent]
		}
		return s
	}
	r := rand.New(rand.NewSource(3))
	slo := SLO{TTFT: 1, TPOT: 0.1}
	var st Stats
	var ttfts, tpots []float64
	for i := 0; i < 5000; i++ {
		ttft, tpot := r.ExpFloat64(), 0.05*r.ExpFloat64()
		st.recordTTFT(ttft, slo, 1+r.Intn(512))
		st.recordToken(tpot, slo.TPOT)
		ttfts, tpots = slide(ttfts, ttft), slide(tpots, tpot)
		if i%7 != 0 {
			continue
		}
		for _, p := range []float64{0, 50, 90, 99, 99.9, 100} {
			if got, want := st.TailTTFT(p), perfmon.Percentile(ttfts, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("push %d: TailTTFT(%v) = %v, sliding window %v", i, p, got, want)
			}
			if got, want := st.TailTPOT(p), perfmon.Percentile(tpots, p); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("push %d: TailTPOT(%v) = %v, sliding window %v", i, p, got, want)
			}
		}
	}
	if len(st.RecentTTFTs()) != maxRecent {
		t.Fatalf("window holds %d samples, want %d", len(st.RecentTTFTs()), maxRecent)
	}
}
