package colo

import (
	"errors"
	"strings"
	"testing"

	"aum/internal/chaos"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/serve"
	"aum/internal/trace"
	"aum/internal/vcfg"
	"aum/internal/workload"
)

// exclusiveMgr is a minimal exclusive manager (the real baselines live
// in internal/manager, which depends on this package).
type exclusiveMgr struct{}

func (exclusiveMgr) Name() string             { return "ALL-AU" }
func (exclusiveMgr) Interval() float64        { return 0 }
func (exclusiveMgr) Tick(*Env, float64) error { return nil }
func (exclusiveMgr) Setup(e *Env) error {
	half := e.Plat.Cores / 2
	return e.AddLLM(
		machine.Placement{CoreLo: 0, CoreHi: half - 1, SMTSlot: 0},
		machine.Placement{CoreLo: half, CoreHi: e.Plat.Cores - 1, SMTSlot: 0},
	)
}

// sharedMgr is a minimal partitioned-sharing manager.
type sharedMgr struct{}

func (sharedMgr) Name() string             { return "RP-lite" }
func (sharedMgr) Interval() float64        { return 0.05 }
func (sharedMgr) Tick(*Env, float64) error { return nil }
func (sharedMgr) Setup(e *Env) error {
	n := e.Plat.Cores
	if err := e.AddLLM(
		machine.Placement{CoreLo: 0, CoreHi: n/2 - 1, SMTSlot: 0},
		machine.Placement{CoreLo: n / 2, CoreHi: 3*n/4 - 1, SMTSlot: 0},
	); err != nil {
		return err
	}
	return e.AddBE(machine.Placement{CoreLo: 3 * n / 4, CoreHi: n - 1, SMTSlot: 0, COS: 1})
}

func baseConfig() Config {
	return Config{
		Plat:     platform.GenA(),
		Model:    llm.Llama2_7B(),
		Scen:     trace.Chatbot(),
		Manager:  exclusiveMgr{},
		HorizonS: 10,
		Seed:     7,
	}
}

func TestExclusiveRun(t *testing.T) {
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != "ALL-AU" || res.CoRunner != "none" {
		t.Fatalf("labels: %+v", res.Scheme)
	}
	if res.RawPerfH <= 0 || res.RawPerfL <= 0 {
		t.Fatal("no serving throughput")
	}
	if res.PerfN != 0 {
		t.Fatal("exclusive run should have zero shared work")
	}
	if res.Watts <= 100 || res.Watts > platform.GenA().TDPWatts {
		t.Fatalf("implausible power %v", res.Watts)
	}
	for _, g := range []float64{res.TTFTGuarantee, res.TTFTGuaranteeScaled, res.TPOTGuarantee} {
		if g < 0 || g > 1 {
			t.Fatalf("guarantee out of range: %v", g)
		}
	}
	if res.PerfH > res.RawPerfH {
		t.Fatal("guaranteed throughput cannot exceed raw")
	}
	if res.Eff <= 0 {
		t.Fatal("efficiency not computed")
	}
}

func TestSharedRun(t *testing.T) {
	cfg := baseConfig()
	jbb := workload.SPECjbb()
	cfg.BE = &jbb
	cfg.Manager = sharedMgr{}
	cfg.TrackAlloc = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerfN <= 0 {
		t.Fatal("co-runner did no work")
	}
	if res.CoRunner != "SPECjbb" {
		t.Fatalf("co-runner label %q", res.CoRunner)
	}
	if len(res.Alloc) == 0 {
		t.Fatal("allocation trace not recorded")
	}
	for _, a := range res.Alloc {
		if a.BEWays < 1 || a.BEMBA < 10 || a.BECores <= 0 {
			t.Fatalf("invalid allocation sample %+v", a)
		}
	}
	if res.MeanGHzBE <= 0 {
		t.Fatal("co-runner frequency not tracked")
	}
}

func TestDeterministicRuns(t *testing.T) {
	a, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.PerfH != b.PerfH || a.Watts != b.Watts || a.PerfL != b.PerfL {
		t.Fatal("same-seed runs diverged")
	}
}

type brokenManager struct{}

func (brokenManager) Name() string             { return "broken" }
func (brokenManager) Interval() float64        { return 0 }
func (brokenManager) Tick(*Env, float64) error { return nil }
func (brokenManager) Setup(*Env) error         { return errors.New("boom") }

func TestSetupErrorPropagates(t *testing.T) {
	cfg := baseConfig()
	cfg.Manager = brokenManager{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("setup error swallowed")
	}
}

type lazyManager struct{}

func (lazyManager) Name() string             { return "lazy" }
func (lazyManager) Interval() float64        { return 0 }
func (lazyManager) Tick(*Env, float64) error { return nil }
func (lazyManager) Setup(*Env) error         { return nil } // forgets AddLLM

func TestSetupMustPlaceWorkers(t *testing.T) {
	cfg := baseConfig()
	cfg.Manager = lazyManager{}
	if _, err := Run(cfg); err == nil {
		t.Fatal("missing placement not detected")
	}
}

type countingManager struct {
	ticks int
}

func (c *countingManager) Name() string      { return "counting" }
func (c *countingManager) Interval() float64 { return 0.05 }
func (c *countingManager) Setup(e *Env) error {
	return e.AddLLM(
		machine.Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0},
		machine.Placement{CoreLo: 48, CoreHi: 95, SMTSlot: 0},
	)
}
func (c *countingManager) Tick(*Env, float64) error {
	c.ticks++
	return nil
}

func TestTickCadence(t *testing.T) {
	cfg := baseConfig()
	cfg.HorizonS = 2
	mgr := &countingManager{}
	cfg.Manager = mgr
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	// 2 s at 50 ms => ~40 ticks.
	if mgr.ticks < 35 || mgr.ticks > 45 {
		t.Fatalf("ticks = %d, want ~40", mgr.ticks)
	}
}

func TestChaosRunLogsEventsDeterministically(t *testing.T) {
	run := func() Result {
		jbb := workload.SPECjbb()
		cfg := baseConfig()
		cfg.Manager = sharedMgr{}
		cfg.BE = &jbb
		sched := chaos.Schedule{Events: []chaos.Event{
			{At: 3, Kind: chaos.PhaseFlip, Duration: 1},
			{At: 5, Kind: chaos.CoreOffline, Cores: 4, Duration: 2},
			{At: 6, Kind: chaos.PhaseFlip},
		}}
		cfg.Chaos = &sched
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	// 3 injections + 2 reverts (the second flip is permanent).
	if len(a.ChaosEvents) != 5 {
		t.Fatalf("chaos log has %d entries, want 5: %v", len(a.ChaosEvents), a.ChaosEvents)
	}
	for _, ev := range a.ChaosEvents {
		if ev.Now < ev.Event.At {
			t.Fatalf("event applied before schedule: %+v", ev)
		}
	}
	b := run()
	if a.RawPerfL != b.RawPerfL || a.ViolationS != b.ViolationS || len(a.Violations) != len(b.Violations) {
		t.Fatal("same-seed chaos runs diverged")
	}
}

func TestNoChaosLeavesRobustnessFieldsZero(t *testing.T) {
	res, err := Run(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ChaosEvents != nil || res.ViolationS != 0 || res.Recovered {
		t.Fatalf("robustness fields populated without chaos: %+v", res)
	}
	if res.RecoveryS != -1 {
		t.Fatalf("RecoveryS = %v, want -1 sentinel", res.RecoveryS)
	}
}

func TestAdmissionReachesEngine(t *testing.T) {
	cfg := baseConfig()
	cfg.Admission = serve.Admission{MaxQueue: 1}
	cfg.HorizonS = 8
	cfg.RatePerS = 50 // far beyond capacity: the queue bound must shed
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("overloaded run with MaxQueue=1 shed nothing")
	}
}

func TestViolationMonitorWindows(t *testing.T) {
	slo := serve.SLO{TTFT: 0.1, TPOT: 0.05}
	mon := newViolationMonitor(slo, 0)
	st := &serve.Stats{}
	// t=0: one fast completion — compliant.
	st.PrefillRequests, st.TTFTSum = 1, 0.05
	mon.observe(0.0, 0, st)
	// t=0.3: one slow completion (interval mean 1.0 s) — first
	// violated sample; debounce holds the window shut.
	st.PrefillRequests, st.TTFTSum = 2, 1.05
	mon.observe(0.3, 0, st)
	// t=0.6: nothing completed and the head has waited too long —
	// second violated sample, the window opens backdated to 0.3.
	mon.observe(0.6, 1.0, st)
	// t=0.9: slow decode tokens keep it open.
	st.DecodeTokens, st.TPOTSum = 10, 2.0
	mon.observe(0.9, 0, st)
	// t=1.2: one clean sample mid-incident — debounced, still open.
	st.PrefillRequests, st.TTFTSum = 3, 1.10
	st.DecodeTokens, st.TPOTSum = 20, 2.1
	mon.observe(1.2, 0, st)
	// t=1.5: second clean sample — window closes at 1.2.
	st.PrefillRequests, st.TTFTSum = 4, 1.15
	mon.observe(1.5, 0, st)
	windows, open := mon.finish(1.8)
	if open {
		t.Fatal("window left open after recovery")
	}
	if len(windows) != 1 || windows[0].Start != 0.3 || windows[0].End != 1.2 {
		t.Fatalf("windows = %+v", windows)
	}
	// A single violated blip between compliant samples never opens.
	mon3 := newViolationMonitor(slo, 0)
	mon3.observe(0, 0, &serve.Stats{})
	mon3.observe(0.3, 1.0, &serve.Stats{})
	mon3.observe(0.6, 0, &serve.Stats{})
	if w3, open3 := mon3.finish(1); open3 || len(w3) != 0 {
		t.Fatalf("single blip opened a window: %+v", w3)
	}
	// A run ending mid-violation reports the open window.
	mon2 := newViolationMonitor(slo, 0)
	mon2.observe(0, 1.0, &serve.Stats{})
	mon2.observe(0.3, 1.0, &serve.Stats{})
	w2, open2 := mon2.finish(0.6)
	if !open2 || len(w2) != 1 || w2[0].Start != 0 || w2[0].End != 0.6 {
		t.Fatalf("open window mishandled: %+v open=%v", w2, open2)
	}
}

// TestConfigValidationNamesFields: bad knobs come back as vcfg field
// errors naming the offending field and its legal range — the shared
// idiom across colo, cluster, and experiments.
func TestConfigValidationNamesFields(t *testing.T) {
	cases := []struct {
		name  string
		mut   func(*Config)
		field string
	}{
		{"no platform", func(c *Config) { c.Plat = platform.Platform{} }, "Config.Plat"},
		{"no manager", func(c *Config) { c.Manager = nil }, "Config.Manager"},
		{"negative horizon", func(c *Config) { c.HorizonS = -4 }, "Config.HorizonS"},
		{"warmup past horizon", func(c *Config) { c.WarmupS = 99 }, "Config.WarmupS"},
		{"dt past horizon", func(c *Config) { c.HorizonS = machine.DT / 2 }, "Config.HorizonS"},
		{"negative rate", func(c *Config) { c.RatePerS = -1 }, "Config.RatePerS"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig()
			tc.mut(&cfg)
			_, err := Run(cfg)
			if err == nil {
				t.Fatal("accepted")
			}
			var fe *vcfg.FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("not a vcfg.FieldError: %v", err)
			}
			if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name %s", err, tc.field)
			}
		})
	}
}
