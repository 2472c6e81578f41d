package cluster

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"aum/internal/chaos"
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/serve"
	"aum/internal/trace"
	"aum/internal/vcfg"
)

// faultedConfig is a three-machine fleet with one mid-run crash of
// machine 0 that recovers before the horizon.
func faultedConfig() Config {
	return Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: AUVAware,
		HorizonS: 12, Seed: 9, RatePerS: 2.0,
		Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
			{At: 4, Kind: chaos.MachineCrash, Machine: 0, Duration: 2},
		}},
	}
}

func TestCrashRecoveryLifecycle(t *testing.T) {
	res, err := Run(faultedConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Outages != 1 {
		t.Fatalf("crashes=%d outages=%d, want 1/1", res.Crashes, res.Outages)
	}
	// Outage = 2 s fault + 0.2 s confirmation-invisible + 2 s reboot,
	// quantized to barriers.
	if res.MTTRs < 3 || res.MTTRs > 6 {
		t.Fatalf("MTTR %.2fs outside the expected 4 s ballpark", res.MTTRs)
	}
	if res.Availability >= 1 || res.Availability < 0.7 {
		t.Fatalf("availability %.3f not in (0.7, 1)", res.Availability)
	}
	n0 := res.PerNode[0]
	if n0.Crashes != 1 || n0.DowntimeS <= 0 {
		t.Fatalf("node 0 crash accounting: %+v", n0)
	}
	if n0.State != "active" {
		t.Fatalf("node 0 should have recovered to active, is %s", n0.State)
	}
	// The crashed machine was serving: its in-flight requests must have
	// been retried and re-dispatched to the survivors.
	if res.Retried == 0 || res.Redispatched == 0 {
		t.Fatalf("no failover traffic: retried=%d redispatched=%d", res.Retried, res.Redispatched)
	}
	// Health transitions in lifecycle order.
	var seq []string
	for _, ev := range res.HealthEvents {
		if ev.Machine == "GenA-0" {
			seq = append(seq, ev.State)
		}
	}
	want := []string{"suspect", "down", "recovering", "ready"}
	if len(seq) != len(want) {
		t.Fatalf("health events %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("health events %v, want %v", seq, want)
		}
	}
	// The fleet must keep producing through the outage.
	if res.GoodTokensPS <= 0 || res.TTFTp99 <= 0 {
		t.Fatalf("no goodput through the outage: %+v", res)
	}
}

// TestFleetChaosWidthDeterminism is the acceptance contract of the
// fault-tolerance layer: a fleet under crashes, stragglers, and link
// faults must produce a byte-identical Result across worker widths
// 1/2/8. Run under -race this also proves the failover paths share
// nothing across epoch goroutines.
func TestFleetChaosWidthDeterminism(t *testing.T) {
	baseline := ""
	for _, w := range []int{1, 2, 8} {
		cfg := Config{
			Machines: []MachineSpec{
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenB(), Mgr: manager.AllAU{}},
				{Plat: platform.GenC(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: AUVAware,
			HorizonS: 10, Seed: 17, Workers: w, RatePerS: 2.0,
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 0.5},
			Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
				{At: 3, Kind: chaos.MachineCrash, Machine: 0, Duration: 1.5},
				{At: 4, Kind: chaos.Straggler, Machine: 1, Duration: 3, Factor: 0.6},
				{At: 6, Kind: chaos.LinkBrownout, Machine: 1, Duration: 2, Factor: 0.4},
			}},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if baseline == "" {
			baseline = string(buf)
		} else if string(buf) != baseline {
			t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", w, buf, baseline)
		}
	}
}

// TestRoutingSkipsUnhealthyNodes pins the serving-eligibility audit:
// only Active machines of the right class may receive fresh arrivals,
// and only Active non-prefill machines may sink KV handoffs — never
// draining, standby, warming, or crashed nodes.
func TestRoutingSkipsUnhealthyNodes(t *testing.T) {
	mk := func(st nodeState, role Role) *node {
		return &node{
			role:  role,
			state: st,
			Node:  &colo.Node{Env: colo.Env{Engine: serve.NewEngine(serve.Config{Model: llm.Llama2_7B()})}},
		}
	}
	nodes := []*node{
		mk(stateActive, RoleMixed),     // 0: eligible for both
		mk(stateStandby, RoleMixed),    // 1
		mk(stateWarming, RoleMixed),    // 2
		mk(stateDraining, RoleMixed),   // 3
		mk(stateSuspect, RoleMixed),    // 4
		mk(stateDown, RoleMixed),       // 5
		mk(stateRecovering, RoleMixed), // 6
		mk(stateActive, RoleDecode),    // 7: decode sink, never an arrival target
		mk(stateActive, RolePrefill),   // 8: arrival target, never a decode sink
	}
	got := routableNodes(nodes, 0, nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 8 {
		t.Fatalf("routableNodes = %v, want [0 8]", got)
	}
	// Decode sinking: the dedicated decode machine wins; flipping it to
	// any unhealthy state must exclude it.
	if tgt := pickDecodeTarget(nodes, 0, 8); tgt != 7 {
		t.Fatalf("pickDecodeTarget = %d, want the dedicated decode node 7", tgt)
	}
	for _, st := range []nodeState{stateSuspect, stateDown, stateRecovering, stateDraining, stateStandby, stateWarming} {
		nodes[7].state = st
		if tgt := pickDecodeTarget(nodes, 0, 8); tgt != 0 {
			t.Fatalf("state %v: pickDecodeTarget = %d, want fallback to mixed node 0", st, tgt)
		}
	}
	nodes[7].state = stateActive
	// No eligible sink at all.
	for _, n := range nodes {
		if n.role != RolePrefill {
			n.state = stateDown
		}
	}
	if tgt := pickDecodeTarget(nodes, 0, 8); tgt != -1 {
		t.Fatalf("pickDecodeTarget over a dead fleet = %d, want -1", tgt)
	}
}

func TestFaultConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		events []chaos.FleetEvent
	}{
		{"crash before start", []chaos.FleetEvent{{At: -1, Kind: chaos.MachineCrash}}},
		{"machine out of range", []chaos.FleetEvent{{At: 1, Kind: chaos.MachineCrash, Machine: 5}}},
		{"negative fault duration", []chaos.FleetEvent{{At: 1, Kind: chaos.MachineCrash, Duration: -2}}},
		{"brownout factor out of range", []chaos.FleetEvent{{At: 1, Kind: chaos.LinkBrownout, Factor: 1.5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := twoNodeConfig(RoundRobin)
			cfg.Faults = &chaos.FleetSchedule{Events: tc.events}
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("accepted")
			}
			var fe *vcfg.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("not a FieldError: %v", err)
			}
			if !strings.Contains(err.Error(), "Config.Faults") {
				t.Fatalf("error %q does not name Config.Faults", err)
			}
		})
	}
}

// stormOf returns the address of a copy of s, for Config.Faults.
func stormOf(s chaos.FleetSchedule) *chaos.FleetSchedule { return &s }

// TestAutoscalerReplacesDownNode: a permanent crash of the only active
// machine is a capacity loss the autoscaler must replace from the
// standby pool.
func TestAutoscalerReplacesDownNode(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: AUVAware,
		// Saturating load keeps in-flight work for the harvest; the
		// raised watermark keeps the standby cold until the crash zeroes
		// the fleet's routable capacity.
		HorizonS: 14, Seed: 7, RatePerS: 1.2,
		Autoscale: &AutoscaleConfig{HighUtil: 1.9, HoldBarriers: 2, WarmupDelayS: 0.5},
		Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
			// Duration 0: the machine never comes back.
			{At: 5, Kind: chaos.MachineCrash, Machine: 0},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var warmAt float64 = -1
	for _, ev := range res.ScaleEvents {
		if ev.Action == "warmup" && ev.Machine == "GenA-1" {
			warmAt = ev.At
			break
		}
	}
	if warmAt < 5 {
		t.Fatalf("standby not warmed after the crash: events %+v", res.ScaleEvents)
	}
	if res.PerNode[0].State != "down" {
		t.Fatalf("machine 0 should stay down, is %s", res.PerNode[0].State)
	}
	if res.PerNode[1].State != "active" {
		t.Fatalf("replacement should be active, is %s", res.PerNode[1].State)
	}
	// The harvested requests must land on the replacement.
	if res.Redispatched == 0 {
		t.Fatal("no requests re-dispatched to the replacement")
	}
}

// TestDownNodeDuringDrain: a machine crashing while the autoscaler is
// draining it must go through the outage lifecycle and come back,
// rather than wedging in draining.
func TestDownNodeDuringDrain(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: AUVAware,
		// A busy phase keeps both machines holding multi-second decodes,
		// then the offered rate collapses so the scaler starts draining
		// one of them while its in-flight work is still running — and
		// the crash lands in that draining window.
		HorizonS: 12, Seed: 7, RatePerS: 1.6,
		QPS:       []RatePoint{{At: 2, RatePerS: 0.05}},
		Autoscale: &AutoscaleConfig{HighUtil: 1.2, HoldBarriers: 2, WarmupDelayS: 0.5},
		Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
			{At: 2.3, Kind: chaos.MachineCrash, Machine: 0, Duration: 2},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var drained bool
	for _, ev := range res.ScaleEvents {
		if ev.Action == "drain" && ev.Machine == "GenA-0" && ev.At < 2.3 {
			drained = true
		}
	}
	if !drained {
		t.Fatalf("expected GenA-0 draining before the crash: %+v", res.ScaleEvents)
	}
	if res.Outages != 1 {
		t.Fatalf("outages = %d, want 1", res.Outages)
	}
	// The node must have left the outage states by the horizon (back to
	// active, or re-drained to standby by the scaler).
	switch res.PerNode[0].State {
	case "suspect", "down", "recovering":
		t.Fatalf("node 0 wedged in %s", res.PerNode[0].State)
	}
	if res.GoodTokensPS <= 0 {
		t.Fatal("fleet stopped producing")
	}
}

// TestFlashCrowdWhileReplacementWarms: the crash and a rate surge land
// together, so for a window there is no routable capacity at all.
// Arrivals in that window are shed (counted, not lost silently),
// harvested requests defer their retries, and once the replacement is
// up the deferred retries drain onto it.
func TestFlashCrowdWhileReplacementWarms(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: AUVAware,
		// The surge steps at t=3 (the generator realizes it one
		// old-rate interarrival later); by t=5 the active machine is
		// saturated and the scaler is warming the standby. The crash
		// lands mid-warmup: zero routable capacity until activation.
		HorizonS: 14, Seed: 7, RatePerS: 0.8,
		QPS:       []RatePoint{{At: 3, RatePerS: 5}},
		Autoscale: &AutoscaleConfig{HighUtil: 1.5, HoldBarriers: 2, WarmupDelayS: 3},
		Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
			{At: 4, Kind: chaos.MachineCrash, Machine: 0, Duration: 4},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Unrouted == 0 {
		t.Fatal("expected shed arrivals while no machine was routable")
	}
	if res.Retried == 0 || res.Redispatched == 0 {
		t.Fatalf("deferred retries never drained: retried=%d redispatched=%d", res.Retried, res.Redispatched)
	}
	if res.GoodTokensPS <= 0 {
		t.Fatal("fleet never recovered goodput")
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	cfg := faultedConfig()
	cfg.Machines = cfg.Machines[:2]
	// Alternating crashes chase the retried requests across the fleet:
	// each lands after the other machine has rebooted, so its retries
	// sit on the next machine to die. With the budget of 3, the fourth
	// harvest of a request fails it outright.
	cfg.Faults = &chaos.FleetSchedule{Events: []chaos.FleetEvent{
		{At: 3, Kind: chaos.MachineCrash, Machine: 0, Duration: 0.5},
		{At: 4.5, Kind: chaos.MachineCrash, Machine: 1, Duration: 0.5},
		{At: 6.5, Kind: chaos.MachineCrash, Machine: 0, Duration: 0.5},
		{At: 8, Kind: chaos.MachineCrash, Machine: 1, Duration: 0.5},
	}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedRequests == 0 {
		t.Fatalf("retry budget never exhausted: %+v", res)
	}
	if res.Crashes != 4 {
		t.Fatalf("crashes = %d, want 4", res.Crashes)
	}
}

// TestKVHandoffFailover: transfers in flight toward a crashed decode
// machine are re-sent to the surviving sink over the original source's
// link rather than recomputed.
func TestKVHandoffFailover(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: RolePrefill},
			{Plat: platform.GenC(), Mgr: manager.AllAU{}, Role: RoleDecode},
			{Plat: platform.GenC(), Mgr: manager.AllAU{}, Role: RoleDecode},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: RoundRobin,
		HorizonS: 12, Seed: 9, RatePerS: 1.0,
		// A slow link keeps transfers in flight long enough for the
		// crash to catch some mid-air.
		Link: LinkConfig{GBps: 0.5},
		Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
			{At: 4, Kind: chaos.MachineCrash, Machine: 1, Duration: 3},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.KVRerouted == 0 {
		t.Fatalf("no in-flight handoffs rerouted: %+v", res)
	}
	if res.GoodTokensPS <= 0 {
		t.Fatal("decode goodput lost")
	}
}

// TestLinkPartitionRecompute: a partitioned prefill egress cannot ship
// KV pages, so affected prefills fall back to recompute via the retry
// path — charged, counted, and eventually served.
func TestLinkPartitionRecompute(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: RolePrefill},
			{Plat: platform.GenC(), Mgr: manager.AllAU{}, Role: RoleDecode},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: RoundRobin,
		HorizonS: 12, Seed: 9, RatePerS: 1.0,
		Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
			{At: 4, Kind: chaos.LinkDown, Machine: 0, Duration: 2},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recomputed == 0 {
		t.Fatalf("no recomputes under a link partition: %+v", res)
	}
	var down, up bool
	for _, ev := range res.HealthEvents {
		switch ev.State {
		case "link-down":
			down = true
		case "link-up":
			up = true
		}
	}
	if !down || !up {
		t.Fatalf("link partition events missing: %+v", res.HealthEvents)
	}
}

// TestCircuitBreakerQuarantine: a machine over the crash threshold is
// quarantined for breakerHoldS beyond the normal reboot.
func TestCircuitBreakerQuarantine(t *testing.T) {
	cfg := faultedConfig()
	cfg.HorizonS = 24
	var events []chaos.FleetEvent
	for k := 0; k < breakerThreshold; k++ {
		events = append(events, chaos.FleetEvent{At: 2 + 3.5*float64(k), Kind: chaos.MachineCrash, Machine: 0, Duration: 0.5})
	}
	last := events[len(events)-1].At
	cfg.Faults = &chaos.FleetSchedule{Events: events}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var opened bool
	var readyAts []float64
	for _, ev := range res.HealthEvents {
		switch ev.State {
		case "breaker-open":
			opened = true
		case "ready":
			readyAts = append(readyAts, ev.At)
		}
	}
	if !opened {
		t.Fatalf("breaker never opened: %+v", res.HealthEvents)
	}
	if len(readyAts) != breakerThreshold {
		t.Fatalf("ready events %v, want %d", readyAts, breakerThreshold)
	}
	// Earlier outages: 0.5 s fault + reboot. The last adds the hold.
	if gap := readyAts[0] - 2; gap > 0.5+recoveryWarmupS+0.1 {
		t.Fatalf("first rejoin after %.2fs, want the unquarantined %.1f s", gap, 0.5+recoveryWarmupS)
	}
	if gap := readyAts[len(readyAts)-1] - last; gap < recoveryWarmupS+breakerHoldS {
		t.Fatalf("quarantined rejoin after %.2fs, want >= %.0f s (reboot + hold)", gap, recoveryWarmupS+breakerHoldS)
	}
	if res.PerNode[0].Crashes != breakerThreshold {
		t.Fatalf("node crash count %d, want %d", res.PerNode[0].Crashes, breakerThreshold)
	}
}

// TestStragglerDegradesWithoutOutage: a frequency-derated machine keeps
// serving — no outage, no redispatch — but the fleet slows down.
func TestStragglerDegradesWithoutOutage(t *testing.T) {
	base := faultedConfig()
	base.Faults = nil
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	slow := faultedConfig()
	slow.Faults = &chaos.FleetSchedule{Events: []chaos.FleetEvent{
		{At: 3, Kind: chaos.Straggler, Machine: 0, Duration: 6, Factor: 0.4},
	}}
	res, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outages != 0 || res.Redispatched != 0 {
		t.Fatalf("straggler must not trigger failover: %+v", res)
	}
	if res.Availability != 1 {
		t.Fatalf("straggler availability %.3f, want 1 (gray failure, not outage)", res.Availability)
	}
	if res.GoodTokensPS >= clean.GoodTokensPS {
		t.Fatalf("straggler goodput %.1f not below clean %.1f", res.GoodTokensPS, clean.GoodTokensPS)
	}
}
