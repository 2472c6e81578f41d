package cluster

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/trace"
	"aum/internal/vcfg"
	"aum/internal/workload"
)

func twoNodeConfig(policy BalancePolicy) Config {
	return Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenC(), Mgr: manager.AllAU{}},
		},
		Model:    llm.Llama2_7B(),
		Scen:     trace.Chatbot(),
		Policy:   policy,
		HorizonS: 12,
		Seed:     9,
	}
}

func TestPolicyNames(t *testing.T) {
	if RoundRobin.String() != "round-robin" || LeastQueued.String() != "least-queued" || AUVAware.String() != "auv-aware" {
		t.Fatal("policy names")
	}
	for _, p := range []BalancePolicy{RoundRobin, LeastQueued, AUVAware} {
		got, err := ParseBalancePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParseBalancePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseBalancePolicy("fastest"); err == nil {
		t.Fatal("parsed a bogus policy")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"empty fleet", func(c *Config) { c.Machines = nil }, "Config.Machines"},
		{"nil manager", func(c *Config) { c.Machines[1].Mgr = nil }, "Config.Machines[1].Mgr"},
		{"bad policy", func(c *Config) { c.Policy = 99 }, "Config.Policy"},
		{"negative horizon", func(c *Config) { c.HorizonS = -1 }, "Config.HorizonS"},
		{"warmup past horizon", func(c *Config) { c.WarmupS = 20 }, "Config.WarmupS"},
		{"barrier under dt", func(c *Config) { c.DT = 0.01; c.BarrierS = 0.001 }, "Config.BarrierS"},
		{"negative rate", func(c *Config) { c.RatePerS = -2 }, "Config.RatePerS"},
		{"qps not increasing", func(c *Config) {
			c.QPS = []RatePoint{{At: 5, RatePerS: 1}, {At: 5, RatePerS: 2}}
		}, "Config.QPS[1].At"},
		{"qps zero rate", func(c *Config) {
			c.QPS = []RatePoint{{At: 5, RatePerS: 0}}
		}, "Config.QPS[0].RatePerS"},
		{"negative link bw", func(c *Config) { c.Link.GBps = -1 }, "Config.Link.GBps"},
		{"standby without autoscale", func(c *Config) { c.Machines[0].Standby = true }, "Config.Machines[0].Standby"},
		{"autoscale with prefill role", func(c *Config) {
			c.Autoscale = &AutoscaleConfig{}
			c.Machines[0].Role = RolePrefill
		}, "Config.Machines[0].Role"},
		{"bad watermarks", func(c *Config) {
			c.Autoscale = &AutoscaleConfig{HighUtil: 0.4, LowUtil: 0.6}
		}, "Config.Autoscale.LowUtil"},
		{"prefill tier without sink", func(c *Config) {
			c.Machines[0].Role = RolePrefill
			c.Machines[1].Role = RolePrefill
		}, "Config.Machines"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := twoNodeConfig(RoundRobin)
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("accepted")
			}
			var fe *vcfg.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("not a FieldError: %v", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}

func TestOptionsMatchLiteralConfig(t *testing.T) {
	c, err := New(
		WithMachines(
			MachineSpec{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			MachineSpec{Plat: platform.GenC(), Mgr: manager.AllAU{}},
		),
		WithModel(llm.Llama2_7B()),
		WithScenario(trace.Chatbot()),
		WithPolicy(AUVAware),
		WithHorizon(12, 0),
		WithSeed(9),
	)
	if err != nil {
		t.Fatal(err)
	}
	lit := twoNodeConfig(AUVAware)
	v, err := lit.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	got, want := c.Config(), v
	if got.HorizonS != want.HorizonS || got.WarmupS != want.WarmupS ||
		got.BarrierS != want.BarrierS || got.RatePerS != want.RatePerS ||
		got.Policy != want.Policy || len(got.Machines) != len(want.Machines) {
		t.Fatalf("options config %+v != literal config %+v", got, want)
	}
}

func TestRoundRobinBalances(t *testing.T) {
	res, err := Run(twoNodeConfig(RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 2 || len(res.PerNode) != 2 {
		t.Fatal("node accounting")
	}
	// Round-robin over two nodes is nearly perfectly balanced in
	// request count.
	if res.Imbalance > 0.05 {
		t.Fatalf("round-robin imbalance = %.3f", res.Imbalance)
	}
	if res.PerfL <= 0 || res.Watts <= 0 {
		t.Fatal("fleet produced nothing")
	}
	if res.PerNode[0].Name != "GenA-0" || res.PerNode[1].Name != "GenC-1" {
		t.Fatalf("node names: %+v", res.PerNode)
	}
}

func TestEveryPolicyRuns(t *testing.T) {
	for _, p := range []BalancePolicy{RoundRobin, LeastQueued, AUVAware} {
		res, err := Run(twoNodeConfig(p))
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		total := 0
		for _, n := range res.PerNode {
			total += n.Requests
		}
		if total == 0 {
			t.Fatalf("%v routed no requests", p)
		}
		if res.TPOTGuar < 0 || res.TPOTGuar > 1 {
			t.Fatalf("%v guarantee out of range", p)
		}
	}
}

func TestAUVAwarePrefersFasterMachine(t *testing.T) {
	// GenC's bandwidth headroom gives it more request capacity under
	// the decode-bound chatbot mix; the aware balancer should skew
	// work toward it instead of splitting evenly.
	res, err := Run(twoNodeConfig(AUVAware))
	if err != nil {
		t.Fatal(err)
	}
	var genA, genC int
	for _, n := range res.PerNode {
		switch n.Name {
		case "GenA-0":
			genA = n.Requests
		case "GenC-1":
			genC = n.Requests
		}
	}
	if genC < genA {
		t.Fatalf("AUV-aware routed %d to GenC vs %d to GenA", genC, genA)
	}
}

func TestSharedFleet(t *testing.T) {
	jbb := workload.SPECjbb()
	cfg := twoNodeConfig(AUVAware)
	cfg.BE = &jbb
	cfg.Machines[0].Mgr = &manager.RPAU{}
	cfg.Machines[1].Mgr = &manager.RPAU{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerfN <= 0 {
		t.Fatal("fleet harvested nothing")
	}
	if res.Eff <= 0 {
		t.Fatal("fleet efficiency missing")
	}
}

// TestWorkerWidthDeterminism is the fleet-layer determinism contract:
// the entire Result — routing, autoscaling, handoffs, energy — must be
// byte-identical whether machines step on 1, 2, or 8 workers. Run
// under -race this also proves epochs share nothing.
func TestWorkerWidthDeterminism(t *testing.T) {
	scen := trace.Chatbot()
	baseline := ""
	for _, w := range []int{1, 2, 8} {
		cfg := Config{
			Machines: []MachineSpec{
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenB(), Mgr: manager.AllAU{}},
				{Plat: platform.GenC(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: llm.Llama2_7B(), Scen: scen, Policy: AUVAware,
			HorizonS: 8, Seed: 17, Workers: w,
			RatePerS:  1.0,
			QPS:       []RatePoint{{At: 3, RatePerS: 8}},
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 0.5},
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
			t.Fatalf("workers=%d diverged from workers=1:\n%s\nvs\n%s", w, buf, baseline)
		}
	}
}

func TestAutoscaleFollowsQPS(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: AUVAware,
		HorizonS: 16, Seed: 11,
		// Quiet start, a surge past one machine's capacity, then quiet
		// again: the scaler should warm the standby up and drain it back.
		RatePerS:  0.3,
		QPS:       []RatePoint{{At: 4, RatePerS: 6}, {At: 10, RatePerS: 0.3}},
		Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 0.5},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var warmed, drained bool
	for _, ev := range res.ScaleEvents {
		switch ev.Action {
		case "warmup":
			warmed = true
		case "drain":
			drained = true
		}
	}
	if !warmed || !drained {
		t.Fatalf("expected a warmup and a drain, got %+v", res.ScaleEvents)
	}
	// The standby machine must have cost less than always-on would.
	alwaysOn := float64(len(cfg.Machines)) * cfg.HorizonS
	if res.MachineSecondsActive >= alwaysOn {
		t.Fatalf("autoscaling saved nothing: %.1f machine-seconds of %.1f", res.MachineSecondsActive, alwaysOn)
	}
	if res.MachineSecondsActive < cfg.HorizonS {
		t.Fatalf("the always-on machine alone should account for %.0f machine-seconds, got %.1f", cfg.HorizonS, res.MachineSecondsActive)
	}
}

func TestDisaggregatedPrefillDecode(t *testing.T) {
	cfg := Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: RolePrefill},
			{Plat: platform.GenC(), Mgr: manager.AllAU{}, Role: RoleDecode},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(), Policy: RoundRobin,
		HorizonS: 12, Seed: 9, RatePerS: 1.0,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Handoffs == 0 || res.KVBytes <= 0 {
		t.Fatalf("no KV traffic: %+v", res)
	}
	// The default link's 2 ms base latency floors the mean transfer
	// delay.
	if res.MeanKVDelayS < 2e-3 {
		t.Fatalf("KV delay %.4fs below the link latency floor", res.MeanKVDelayS)
	}
	var pre, dec NodeResult
	for _, n := range res.PerNode {
		switch n.Role {
		case "prefill":
			pre = n
		case "decode":
			dec = n
		}
	}
	if pre.Requests == 0 || dec.Requests != 0 {
		t.Fatalf("arrivals must hit the prefill tier only: %+v", res.PerNode)
	}
	if dec.HandoffsIn != res.Handoffs {
		t.Fatalf("decode tier received %d of %d handoffs", dec.HandoffsIn, res.Handoffs)
	}
	if dec.PerfL <= 0 {
		t.Fatal("decode tier produced no guaranteed tokens")
	}
	if res.GoodTokensPS <= 0 {
		t.Fatal("fleet goodput missing")
	}
}

func TestHeterogeneousScenarioClasses(t *testing.T) {
	code := trace.CodeCompletion()
	cfg := twoNodeConfig(RoundRobin)
	cfg.Machines[1].Scen = &code
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Classes route independently, so both machines serve work.
	for _, n := range res.PerNode {
		if n.Requests == 0 {
			t.Fatalf("class routing starved %s: %+v", n.Name, res.PerNode)
		}
	}
}

func TestRequestCapacityOrdering(t *testing.T) {
	m := llm.Llama2_7B()
	scen := trace.Chatbot()
	a := requestCapacity(platform.GenA(), m, scen)
	c := requestCapacity(platform.GenC(), m, scen)
	if a <= 0 || c <= 0 {
		t.Fatal("capacities must be positive")
	}
	// The chatbot mix is decode-bandwidth-bound: GenC's 600 GB/s give
	// it more request capacity than GenA despite less prefill compute.
	if c <= a {
		t.Fatalf("GenC request capacity (%v) should exceed GenA's (%v)", c, a)
	}
}
