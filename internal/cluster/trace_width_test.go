package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"aum/internal/chaos"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/trace"
)

// TestTraceBytesWidthDeterminism pins the rendered request traces —
// not just the result struct — across worker widths. Concurrent
// machine stepping records hooks in racy order within an epoch; the
// tracer's trace-ID-sorted fold is what makes every span tree, blame
// vector and the fleet-wide report width-independent. A disaggregated
// fleet under a crash storm exercises every event source at once: the
// KV handoff that moves each request to the decode tier, and the
// failover hops of requests the crashes lose — harvest, backoff, retry,
// and retries that run out of budget while both decode machines are
// down.
func TestTraceBytesWidthDeterminism(t *testing.T) {
	render := func(width int) []byte {
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
			Faults:   stormOf(chaos.CrashStorm(4, 3, 24, 3, 5)),
			Workers:  width,
			ReqTrace: rt,
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(struct {
			Recent []reqtrace.RequestTrace `json:"recent"`
			Report reqtrace.BlameReport    `json:"report"`
		}{rt.Recent(0), rt.Report()})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := render(1)
	for _, span := range []string{"kv-wait", "crash-lost", "backoff", "retry-exhausted"} {
		if !bytes.Contains(ref, []byte(`"name":"`+span+`"`)) {
			t.Fatalf("no %s span in the traces; the fixture no longer covers that hop", span)
		}
	}
	for _, w := range []int{2, 8} {
		if got := render(w); !bytes.Equal(got, ref) {
			t.Errorf("trace bytes at width %d diverge from width 1 (%d vs %d bytes)", w, len(got), len(ref))
		}
	}
}
