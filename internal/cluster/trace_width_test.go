package cluster

import (
	"bytes"
	"testing"

	"aum/internal/chaos"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/telemetry"
	"aum/internal/trace"
)

// TestTraceBytesWidthDeterminism pins the rendered Chrome trace — not
// just the result struct — across worker widths. Concurrent machine
// stepping emits trace events in racy order within an epoch; the
// WriteJSON sort with its (Ts, PID, TID, Name) tie-break is what makes
// the serialized bytes width-independent, including the request-flow
// events the causal tracer adds. A faulted, disaggregated fleet
// exercises every event source at once.
func TestTraceBytesWidthDeterminism(t *testing.T) {
	render := func(width int) []byte {
		sink := telemetry.NewTrace()
		rt := reqtrace.New(reqtrace.Config{KeepRecent: 1 << 16})
		cfg := Config{
			Machines: []MachineSpec{
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: RolePrefill},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: RolePrefill},
				{Plat: platform.GenB(), Mgr: manager.AllAU{}, Role: RoleDecode},
				{Plat: platform.GenB(), Mgr: manager.AllAU{}, Role: RoleDecode},
			},
			Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
			Policy: LeastQueued, HorizonS: 24, Seed: 11, RatePerS: 1.5,
			Faults:   stormOf(chaos.CrashStorm(4, 2, 24, 3, 11)),
			Workers:  width,
			Trace:    sink,
			ReqTrace: rt,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sink.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ref := render(1)
	if len(ref) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Contains(ref, []byte("req-flow")) {
		t.Fatal("trace carries no request flow events; the fixture went untraced")
	}
	for _, w := range []int{2, 8} {
		if got := render(w); !bytes.Equal(got, ref) {
			t.Errorf("trace bytes at width %d diverge from width 1 (%d vs %d bytes)", w, len(got), len(ref))
		}
	}
}
