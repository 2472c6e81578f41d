package serve

import (
	"testing"

	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
)

// stepEngine drives both workers for horizon seconds on a generous
// environment — enough to move requests through prefill and decode
// without a full machine simulation.
func stepEngine(e *Engine, horizon float64) {
	plat := platform.GenA()
	env := machine.Env{Plat: &plat, Cores: 32, GHz: 2.0,
		ComputeShare: 1, LLCMB: 100, L2MB: 64, BWGBs: 200}
	for k := int64(0); machine.Time(k) < horizon; k++ {
		e.PrefillWorker().Step(env, machine.Time(k))
		e.DecodeWorker().Step(env, machine.Time(k))
	}
}

func TestHandoffExportsPrefills(t *testing.T) {
	var got []*Request
	e := NewEngine(Config{
		Model: llm.Llama2_7B(),
		SLO:   SLO{TTFT: 0.5, TPOT: 0.1},
		Handoff: func(r *Request, now float64) {
			if r.TokensDone != 1 || r.FirstToken <= 0 {
				t.Errorf("handoff before first token: %+v", r)
			}
			got = append(got, r)
		},
	})
	for i := 0; i < 4; i++ {
		r := &Request{ID: i + 1, Arrival: float64(i) * 0.01, PromptLen: 64, OutputLen: 32}
		if err := e.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	stepEngine(e, 2)
	if len(got) != 4 {
		t.Fatalf("handed off %d of 4 requests", len(got))
	}
	if e.Stats().HandedOff != 4 {
		t.Fatalf("Stats.HandedOff = %d", e.Stats().HandedOff)
	}
	if e.DecodeBatch() != 0 || e.BacklogLen() != 0 {
		t.Fatal("handoff engine must not keep decode work")
	}
	if !e.Idle() {
		t.Fatal("engine should be idle after exporting everything")
	}
}

func TestInjectDecodeProducesTokens(t *testing.T) {
	e := NewEngine(Config{Model: llm.Llama2_7B(), SLO: SLO{TTFT: 0.5, TPOT: 0.1}})
	r := &Request{ID: 1, Arrival: 0, PromptLen: 64, OutputLen: 8,
		FirstToken: 0.1, LastTokenAt: 0.1, TokensDone: 1}
	if err := e.InjectDecode(r, 0.2); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Injected != 1 || e.DecodeBatch() != 1 {
		t.Fatal("inject did not join the decode batch")
	}
	stepEngine(e, 2)
	if !r.Done || r.TokensDone < r.OutputLen {
		t.Fatalf("injected request did not finish: %+v", r)
	}
	// The transfer delay lands in the first decode interval:
	// LastTokenAt stayed at the prefill-side stamp until the first
	// local token, so DecodeTokens counts only post-injection tokens.
	if got := e.Stats().DecodeTokens; got != float64(r.OutputLen-1) {
		t.Fatalf("decode tokens = %v, want %d", got, r.OutputLen-1)
	}
}

func TestInjectDecodeRejectsUnprefilled(t *testing.T) {
	e := NewEngine(Config{Model: llm.Llama2_7B(), SLO: SLO{TTFT: 0.5, TPOT: 0.1}})
	if err := e.InjectDecode(&Request{ID: 1, PromptLen: 8, OutputLen: 8}, 0); err == nil {
		t.Fatal("accepted a request with no first token")
	}
}

func TestIdleSeesInflightPrefill(t *testing.T) {
	e := NewEngine(Config{Model: llm.Llama2_7B(), SLO: SLO{TTFT: 0.5, TPOT: 0.1}})
	r := &Request{ID: 1, Arrival: 0, PromptLen: 4096, OutputLen: 4}
	if err := e.Submit(r); err != nil {
		t.Fatal(err)
	}
	// One tick: the worker pops the request into a prefill job it cannot
	// finish, so the queue is empty but the engine is not idle.
	plat := platform.GenA()
	env := machine.Env{Plat: &plat, Cores: 1, GHz: 0.5,
		ComputeShare: 1, LLCMB: 10, L2MB: 2, BWGBs: 10}
	e.PrefillWorker().Step(env, 0)
	if e.QueueLen() != 0 {
		t.Skip("prefill job not yet formed") // defensive; should not happen
	}
	if e.Idle() {
		t.Fatal("engine idle with a prefill in flight")
	}
	stepEngine(e, 5)
	if !r.Done {
		t.Fatal("request never finished")
	}
	if !e.Idle() {
		t.Fatal("engine should drain to idle")
	}
}
