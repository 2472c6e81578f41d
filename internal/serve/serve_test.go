package serve

import (
	"math"
	"testing"
	"testing/quick"

	"aum/internal/llm"
	"aum/internal/machine"
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
	now := 0.0
	for i := 0; i < steps; i++ {
		e.PrefillWorker().Step(envP, now, 1e-3)
		e.DecodeWorker().Step(envD, now, 1e-3)
		now += 1e-3
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
	cfg := testConfig()
	cfg.MaxBatch = 4
	e := NewEngine(cfg)
	for i := 0; i < 10; i++ {
		e.Submit(&Request{ID: i, Arrival: 0, PromptLen: 64, OutputLen: 10})
	}
	envP := fullEnv(48, 2.5)
	envD := fullEnv(48, 3.1)
	now := 0.0
	for i := 0; i < 8000; i++ {
		e.PrefillWorker().Step(envP, now, 1e-3)
		e.DecodeWorker().Step(envD, now, 1e-3)
		if e.DecodeBatch() > 4 {
			t.Fatalf("decode batch %d exceeds cap 4", e.DecodeBatch())
		}
		now += 1e-3
	}
	// Backlog admission must eventually drain all requests.
	if e.Stats().FinishedOutput != 10 {
		t.Fatalf("finished %d of 10", e.Stats().FinishedOutput)
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
	u := e.PrefillWorker().Step(env, 0, 1e-3)
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

func TestChunkedPrefillAvoidsHeadOfLineBlocking(t *testing.T) {
	run := func(chunk int) (longTTFT, shortTTFT float64) {
		cfg := testConfig()
		cfg.PrefillChunk = chunk
		e := NewEngine(cfg)
		long := &Request{ID: 1, Arrival: 0, PromptLen: 4000, OutputLen: 2}
		short := &Request{ID: 2, Arrival: 0.001, PromptLen: 64, OutputLen: 2}
		e.Submit(long)
		e.Submit(short)
		runEngine(e, 6000, 48)
		if !long.Done || !short.Done {
			t.Fatalf("requests unfinished (chunk=%d)", chunk)
		}
		return long.TTFT(), short.TTFT()
	}
	_, shortFCFS := run(0)
	longChunked, shortChunked := run(512)
	// Chunking lets the short request slip past the 4000-token prompt.
	if shortChunked >= shortFCFS {
		t.Fatalf("chunked short TTFT %v not better than FCFS %v", shortChunked, shortFCFS)
	}
	// The long request still completes in bounded time.
	if longChunked <= 0 || longChunked > 10 {
		t.Fatalf("chunked long TTFT implausible: %v", longChunked)
	}
}

func TestChunkedPrefillAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.PrefillChunk = 128
	e := NewEngine(cfg)
	r := &Request{ID: 1, Arrival: 0, PromptLen: 500, OutputLen: 3}
	e.Submit(r)
	runEngine(e, 4000, 48)
	if !r.Done {
		t.Fatal("request unfinished")
	}
	st := e.Stats()
	// Prefill tokens counted once, not per chunk.
	if st.PrefillTokens != 500 {
		t.Fatalf("prefill tokens = %v, want 500", st.PrefillTokens)
	}
	if st.PrefillRequests != 1 {
		t.Fatalf("prefill requests = %d", st.PrefillRequests)
	}
}

func TestChunkedPrefillStartNotRestamped(t *testing.T) {
	// Regression: a request arriving at t=0 had its PrefillStart
	// re-stamped on every chunk because the code used PrefillStart == 0
	// as the "not started" sentinel. With the explicit started flag the
	// first chunk's timestamp (0 here) must survive later chunks.
	cfg := testConfig()
	cfg.PrefillChunk = 64
	e := NewEngine(cfg)
	r := &Request{ID: 1, Arrival: 0, PromptLen: 512, OutputLen: 2}
	e.Submit(r)
	runEngine(e, 4000, 48)
	if !r.Done {
		t.Fatal("request unfinished")
	}
	if r.PrefillStart != 0 {
		t.Fatalf("PrefillStart = %v, want 0 (stamped once at the first chunk)", r.PrefillStart)
	}
	if !r.started {
		t.Fatal("started flag not set")
	}
}

func TestBacklogAdmissionFIFO(t *testing.T) {
	// When the decode batch is full, prefilled requests wait in the
	// admission backlog and must join the batch in FIFO order.
	cfg := testConfig()
	cfg.MaxBatch = 2
	e := NewEngine(cfg)
	occupants := []*Request{
		{ID: 1, PromptLen: 8, OutputLen: 100, FirstToken: 0.1, LastTokenAt: 0.1, TokensDone: 1},
		{ID: 2, PromptLen: 8, OutputLen: 2, FirstToken: 0.1, LastTokenAt: 0.1, TokensDone: 1},
	}
	e.decodeSet = append(e.decodeSet, occupants...)
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

func TestAdmissionMaxHeadWait(t *testing.T) {
	cfg := testConfig()
	cfg.Admission.MaxHeadWait = 0.5
	e := NewEngine(cfg)
	e.Submit(&Request{ID: 1, Arrival: 0, PromptLen: 8, OutputLen: 2})
	// Head has waited 0.4 s: still admitting.
	e.Submit(&Request{ID: 2, Arrival: 0.4, PromptLen: 8, OutputLen: 2})
	// Head has waited 0.9 s: shedding.
	e.Submit(&Request{ID: 3, Arrival: 0.9, PromptLen: 8, OutputLen: 2})
	if e.QueueLen() != 2 || e.Stats().Rejected != 1 {
		t.Fatalf("queue=%d rejected=%d, want 2/1", e.QueueLen(), e.Stats().Rejected)
	}
}

func TestQueueDeadlineExpiry(t *testing.T) {
	cfg := testConfig()
	cfg.Admission.QueueDeadline = 0.2
	e := NewEngine(cfg)
	r := &Request{ID: 1, Arrival: 0, PromptLen: 8, OutputLen: 2}
	e.Submit(r)
	if r.Deadline != 0.2 {
		t.Fatalf("deadline = %v, want stamped 0.2", r.Deadline)
	}
	// An explicit deadline is preserved.
	r2 := &Request{ID: 2, Arrival: 0, PromptLen: 8, OutputLen: 2, Deadline: 9}
	e.Submit(r2)
	if r2.Deadline != 9 {
		t.Fatalf("explicit deadline overwritten: %v", r2.Deadline)
	}
	// Past the deadline, the un-started head request is dropped and the
	// live one prefills.
	if j := e.nextPrefillJob(0.5); j == nil || j.reqs[0].ID != 2 {
		t.Fatalf("expected request 2 to prefill, got %+v", j)
	}
	if e.Stats().TimedOut != 1 {
		t.Fatalf("timedOut = %d, want 1", e.Stats().TimedOut)
	}
}

func TestDeadlineDoesNotKillStartedRequest(t *testing.T) {
	cfg := testConfig()
	cfg.PrefillChunk = 64
	e := NewEngine(cfg)
	r := &Request{ID: 1, Arrival: 0, PromptLen: 512, OutputLen: 2, Deadline: 0.01}
	e.Submit(r)
	// First chunk starts the request before the deadline...
	j := e.nextPrefillJob(0)
	e.onPrefillDone(j, 0.005)
	// ...so later chunks keep running even past it.
	if j2 := e.nextPrefillJob(1.0); j2 == nil || j2.reqs[0] != r {
		t.Fatal("started request was dropped past its deadline")
	}
	if e.Stats().TimedOut != 0 {
		t.Fatal("started request counted as timed out")
	}
}

func TestBoundedBacklog(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBatch = 1
	cfg.Admission.MaxBacklog = 2
	e := NewEngine(cfg)
	e.decodeSet = append(e.decodeSet, &Request{ID: 1, PromptLen: 8, OutputLen: 100, TokensDone: 1})
	for i := 2; i <= 5; i++ {
		r := &Request{ID: i, PromptLen: 8, OutputLen: 3}
		e.onPrefillDone(&job{reqs: []*Request{r}}, 0.1)
	}
	if len(e.admitBacklog) != 2 {
		t.Fatalf("backlog = %d, want bound 2", len(e.admitBacklog))
	}
	if e.Stats().BacklogDropped != 2 {
		t.Fatalf("backlogDropped = %d, want 2", e.Stats().BacklogDropped)
	}
	// The default (MaxBacklog 0) resolves to 4x MaxBatch.
	if d := NewEngine(testConfig()).Config().Admission.MaxBacklog; d != 64 {
		t.Fatalf("default backlog bound = %d, want 64", d)
	}
	// Negative keeps it unbounded.
	cfg.Admission.MaxBacklog = -1
	e2 := NewEngine(cfg)
	e2.decodeSet = append(e2.decodeSet, &Request{ID: 1, PromptLen: 8, OutputLen: 100, TokensDone: 1})
	for i := 2; i <= 40; i++ {
		e2.onPrefillDone(&job{reqs: []*Request{{ID: i, PromptLen: 8, OutputLen: 3}}}, 0.1)
	}
	if len(e2.admitBacklog) != 39 || e2.Stats().BacklogDropped != 0 {
		t.Fatalf("unbounded backlog: len=%d dropped=%d", len(e2.admitBacklog), e2.Stats().BacklogDropped)
	}
}
