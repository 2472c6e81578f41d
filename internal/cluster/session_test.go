package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"

	"aum/internal/colo"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/serve"
	"aum/internal/telemetry"
	"aum/internal/trace"
)

func sessionTestConfig() Config {
	return Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
		},
		HorizonS: 6, WarmupS: 1, RatePerS: 2,
	}
}

// TestSessionMatchesRun pins the factoring contract: stepping a
// Session through every barrier and finishing at the horizon is the
// same computation Run performs, bit for bit.
func TestSessionMatchesRun(t *testing.T) {
	cfg := sessionTestConfig()
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Config()
	barriers := int(math.Round(v.HorizonS / v.BarrierS))
	for i := 0; i < barriers; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if now := s.Now(); math.Abs(now-v.HorizonS) > 1e-9 {
		t.Fatalf("Now() = %g after all barriers, want %g", now, v.HorizonS)
	}
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got.PerfH != want.PerfH || got.PerfL != want.PerfL || got.Watts != want.Watts ||
		got.Eff != want.Eff || got.GoodTokensPS != want.GoodTokensPS {
		t.Fatalf("session result diverges from Run:\n got %+v\nwant %+v", got, want)
	}
	if len(got.PerNode) != len(want.PerNode) {
		t.Fatalf("PerNode length %d != %d", len(got.PerNode), len(want.PerNode))
	}
	for i := range got.PerNode {
		if got.PerNode[i] != want.PerNode[i] {
			t.Fatalf("PerNode[%d]: got %+v want %+v", i, got.PerNode[i], want.PerNode[i])
		}
	}
}

// TestSessionOpenEnded checks a Session keeps stepping past the
// configured horizon — the gateway's open-ended contract.
func TestSessionOpenEnded(t *testing.T) {
	cfg := sessionTestConfig()
	cfg.HorizonS = 2
	cfg.WarmupS = 0.5
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v := s.Config()
	barriers := int(math.Round(3 * v.HorizonS / v.BarrierS))
	for i := 0; i < barriers; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if now := s.Now(); now <= v.HorizonS {
		t.Fatalf("Now() = %g, want past the %g horizon", now, v.HorizonS)
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes != 2 {
		t.Fatalf("Nodes = %d, want 2", res.Nodes)
	}
}

// TestSessionLiveSource drives a fleet entirely from a LiveSource and
// checks submitted requests are routed.
func TestSessionLiveSource(t *testing.T) {
	src := trace.NewLiveSource()
	cfg := sessionTestConfig()
	cfg.Source = src
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src.Submit(0.01, 64, 4)
	src.Submit(0.02, 64, 4)
	for i := 0; i < 40; i++ {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, n := range res.PerNode {
		routed += n.Requests
	}
	if routed != 2 {
		t.Fatalf("routed %d live requests, want 2", routed)
	}
}

func TestSessionSourceRequiresSingleClass(t *testing.T) {
	cc := trace.CodeCompletion()
	cfg := sessionTestConfig()
	cfg.Machines[1].Scen = &cc
	cfg.Source = trace.NewLiveSource()
	if _, err := NewSession(cfg); err == nil {
		t.Fatal("two scenario classes with a live source validated; want error")
	}
}

func TestAdmissionValidation(t *testing.T) {
	cfg := sessionTestConfig()
	cfg.Admission = serve.Admission{MaxQueue: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative Admission.MaxQueue validated; want error")
	}
	cfg = sessionTestConfig()
	cfg.Admission = serve.Admission{MaxHeadWait: -1}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative Admission.MaxHeadWait validated; want error")
	}
	cfg = sessionTestConfig()
	cfg.Admission = serve.Admission{QueueDeadline: -0.5}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative Admission.QueueDeadline validated; want error")
	}
	// Negative MaxBacklog stays legal: it means unbounded.
	cfg = sessionTestConfig()
	cfg.Admission = serve.Admission{MaxBacklog: -1}
	if _, err := cfg.withDefaults(); err != nil {
		t.Fatalf("MaxBacklog -1 (unbounded) rejected: %v", err)
	}
}

// failTick is an exclusive-baseline manager whose control tick always
// fails, marking the nodes whose barrier errors must be ordered.
type failTick struct{ manager.AllAU }

func (failTick) Interval() float64 { return 0.05 }

func (failTick) Tick(*colo.Env, float64) error { return errors.New("injected tick failure") }

// TestStepReportsLowestFailingNode pins the error order of the sharded
// barrier fan-out: when nodes 3, 5 and 700 of 1024 fail in the same
// barrier (3 and 5 share a shard at every width, 700 lies in another),
// node 3 is reported at every worker width on both error paths — from
// an executed barrier's step shards (arrivals in every barrier, so
// none is elided) and from Finish's catch-up (no arrivals, so every
// barrier is elided and the failures surface in the deferred replay).
func TestStepReportsLowestFailingNode(t *testing.T) {
	for _, tc := range []struct {
		path   string
		rate   float64
		elided uint64 // barriers elided before the failure surfaced
	}{
		{"executed", 400, 0},
		{"catch-up", 1e-3, 40},
	} {
		var first string
		for _, w := range []int{1, 2, 8} {
			// The generator draws its first arrival at the scenario's
			// own rate, so set both rates.
			scen := trace.Chatbot()
			scen.RatePerS = tc.rate
			reg := telemetry.NewRegistry()
			cfg := Config{Scen: scen, HorizonS: 2, RatePerS: tc.rate, Workers: w, Telemetry: reg}
			cfg.Machines = make([]MachineSpec, 1024)
			for i := range cfg.Machines {
				cfg.Machines[i] = MachineSpec{Plat: platform.GenA(), Mgr: manager.AllAU{}}
			}
			for _, i := range []int{3, 5, 700} {
				cfg.Machines[i].Mgr = failTick{}
			}
			s, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for err == nil && s.Now() < cfg.HorizonS {
				err = s.Step()
			}
			if err == nil {
				_, err = s.Finish()
			}
			if err == nil {
				t.Fatalf("%s width %d: no barrier failed", tc.path, w)
			}
			if got := reg.Counter("aum_cluster_barriers_elided_total").Value(); got != tc.elided {
				t.Fatalf("%s width %d: %d barriers elided, want %d", tc.path, w, got, tc.elided)
			}
			msg := err.Error()
			if !strings.Contains(msg, "GenA-3 tick: injected tick failure") {
				t.Fatalf("%s width %d: reported %q, want node GenA-3", tc.path, w, msg)
			}
			if first == "" {
				first = msg
			} else if msg != first {
				t.Fatalf("%s: width %d reported %q, width 1 reported %q", tc.path, w, msg, first)
			}
		}
	}
}
