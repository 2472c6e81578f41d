package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/rdt"
	"aum/internal/serve"
	"aum/internal/trace"
	"aum/internal/workload"
)

func TestClassifyARI(t *testing.T) {
	if ClassifyARI(5000) != UsageHigh {
		t.Fatal("prefill-grade intensity should classify High")
	}
	if ClassifyARI(30) != UsageLow {
		t.Fatal("decode-grade intensity should classify Low")
	}
	if ClassifyARI(0.2) != UsageNone {
		t.Fatal("sub-unit intensity should classify None")
	}
	if UsageHigh.String() != "High" || UsageLow.String() != "Low" || UsageNone.String() != "None" {
		t.Fatal("level names")
	}
}

func TestClassifyPlan(t *testing.T) {
	m := llm.Llama2_7B()
	if got := ClassifyPlan(m.PlanPrefill(16, 512)); got != UsageHigh {
		t.Fatalf("prefill classified %v", got)
	}
	if got := ClassifyPlan(m.PlanDecode(16, 600)); got != UsageLow {
		t.Fatalf("decode classified %v", got)
	}
}

func TestDivisions(t *testing.T) {
	divs := Divisions()
	if len(divs) != 3 {
		t.Fatal("the paper sweeps three dividings")
	}
	prevShared := -1
	for _, d := range divs {
		sp := d.Split(96)
		total := (sp.HiHi - sp.HiLo + 1) + (sp.LoHi - sp.LoLo + 1) + sp.SharedCores()
		if total != 96 {
			t.Fatalf("%s covers %d of 96 cores", d.Name, total)
		}
		// The high-AU region is the largest in every candidate.
		if sp.HiHi-sp.HiLo < sp.LoHi-sp.LoLo {
			t.Fatalf("%s: prefill region smaller than decode", d.Name)
		}
		// Shared cores grow monotonically across the candidates.
		if sp.SharedCores() <= prevShared {
			t.Fatalf("shared region not increasing across dividings")
		}
		prevShared = sp.SharedCores()
	}
}

func TestConfigsAxisAligned(t *testing.T) {
	cfgs := Configs(15)
	if len(cfgs) != 5 {
		t.Fatal("the paper profiles five resource configurations")
	}
	// Configs 0-2 vary ways at fixed bandwidth; 0,3,4 vary bandwidth.
	if !(cfgs[0].BEWays < cfgs[1].BEWays && cfgs[1].BEWays < cfgs[2].BEWays) {
		t.Fatal("way probes not increasing")
	}
	if cfgs[0].BEMBA != cfgs[1].BEMBA || cfgs[1].BEMBA != cfgs[2].BEMBA {
		t.Fatal("way probes should hold bandwidth fixed")
	}
	if !(cfgs[0].BEMBA < cfgs[3].BEMBA && cfgs[3].BEMBA < cfgs[4].BEMBA) {
		t.Fatal("bandwidth probes not increasing")
	}
	if cfgs[3].BEWays != cfgs[0].BEWays || cfgs[4].BEWays != cfgs[0].BEWays {
		t.Fatal("bandwidth probes should hold ways fixed")
	}
}

// smallProfile builds a quick AUV model for controller tests.
func smallProfile(t *testing.T) *Model {
	t.Helper()
	m, err := Profile(platform.GenA(), llm.Llama2_7B(), trace.Chatbot(), workload.SPECjbb(),
		ProfilerOptions{Reps: 2, HorizonS: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestProfileStructure(t *testing.T) {
	m := smallProfile(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.ProfileRuns != 30 {
		t.Fatalf("runs = %d, want 3x5x2", m.ProfileRuns)
	}
	for d := range m.Divisions {
		for c := range m.Configs {
			b := m.Bucket(d, c)
			if b.Division != d || b.Config != c {
				t.Fatalf("bucket indices wrong at d%d c%d", d, c)
			}
			if b.Watts <= 0 || b.ThrL <= 0 {
				t.Fatalf("bucket d%d c%d not populated: %+v", d, c, b)
			}
			if b.FreqH < 1.2 || b.FreqH > 3.3 {
				t.Fatalf("bucket frequency implausible: %v", b.FreqH)
			}
		}
	}
	if m.Bucket(-1, 0) != nil || m.Bucket(0, 99) != nil {
		t.Fatal("out-of-range bucket lookup should return nil")
	}
}

func TestModelJSONRoundTrip(t *testing.T) {
	m := smallProfile(t)
	path := filepath.Join(t.TempDir(), "auv.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Platform != m.Platform || got.CoRunner != m.CoRunner || len(got.Buckets) != len(m.Buckets) {
		t.Fatal("round trip lost fields")
	}
	if got.Bucket(1, 2).ThrN != m.Bucket(1, 2).ThrN {
		t.Fatal("round trip lost bucket data")
	}
	// Corrupt files are rejected.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); err == nil {
		t.Fatal("corrupt model accepted")
	}
}

func TestSensitivities(t *testing.T) {
	m := smallProfile(t)
	s := m.Sensitivities(0)
	// Giving the shared app more resources must not reduce its
	// throughput estimate catastrophically; the gradient should exist.
	if s.WaysThrN == 0 && s.MBAThrN == 0 {
		t.Fatal("no resource gradients recovered")
	}
}

func TestControllerLifecycle(t *testing.T) {
	m := smallProfile(t)
	aum, err := NewAUM(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if aum.Name() != "AUM" || aum.Interval() != 0.05 {
		t.Fatal("controller identity")
	}
	jbb := workload.SPECjbb()
	res, err := colo.Run(colo.Config{
		Plat: platform.GenA(), Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
		BE: &jbb, Manager: aum, HorizonS: 8, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RawPerfL <= 0 || res.PerfN <= 0 {
		t.Fatal("AUM run produced no work")
	}
	ways, mba := aum.Allocation()
	if ways < 1 || mba < 10 || mba > 100 {
		t.Fatalf("allocation out of bounds: ways=%d mba=%d", ways, mba)
	}
	if aum.HarvestSteps+aum.ReturnSteps == 0 {
		t.Fatal("tuner never acted")
	}
}

func TestAblationsRun(t *testing.T) {
	m := smallProfile(t)
	jbb := workload.SPECjbb()
	builders := []func() (colo.Manager, error){
		func() (colo.Manager, error) { return NewAUUP(m, Options{}) },
		func() (colo.Manager, error) { return NewAUFI(m, Options{}) },
		func() (colo.Manager, error) { return NewAURB(m, Options{}) },
	}
	for _, build := range builders {
		mgr, err := build()
		if err != nil {
			t.Fatal(err)
		}
		res, err := colo.Run(colo.Config{
			Plat: platform.GenA(), Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
			BE: &jbb, Manager: mgr, HorizonS: 6, Seed: 13,
		})
		if err != nil {
			t.Fatalf("%s: %v", mgr.Name(), err)
		}
		if res.RawPerfL <= 0 {
			t.Fatalf("%s produced no tokens", mgr.Name())
		}
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	var empty Model
	if empty.Validate() == nil {
		t.Fatal("empty model accepted")
	}
	m := smallProfile(t)
	m.Buckets = m.Buckets[:3]
	if m.Validate() == nil {
		t.Fatal("truncated bucket table accepted")
	}
	if _, err := NewAUM(&Model{}, Options{}); err == nil {
		t.Fatal("controller accepted an invalid model")
	}
}

func TestFeasibleBounds(t *testing.T) {
	m := smallProfile(t)
	// cc's 75 ms TTFT is unattainable: the bound must relax to +Inf so
	// the efficiency objective takes over (prompt-machine mode).
	bT, _ := feasibleBounds(m, 0.005, 0.1)
	if bT < 1e9 {
		t.Fatalf("unattainable TTFT bound not relaxed: %v", bT)
	}
	// A generous SLO keeps its soft margin.
	bT, _ = feasibleBounds(m, 100, 100)
	if bT > 200 {
		t.Fatalf("attainable bound over-relaxed: %v", bT)
	}
}

func TestOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Alpha != 1.8 || o.Beta != 0.2 {
		t.Fatalf("defaults diverge from Section VII-A1: %+v", o)
	}
}

// watchdogEnv builds a minimal live Env (machine + placed workers) so
// the watchdog's division switches and RDT programming run for real.
func watchdogEnv(t *testing.T, a *AUM) *colo.Env {
	t.Helper()
	plat := platform.GenA()
	m := machine.New(plat)
	env := &colo.Env{
		Plat:   plat,
		M:      m,
		RDT:    rdt.New(m),
		Engine: serve.NewEngine(serve.Config{Model: llm.Llama2_7B(), SLO: trace.Chatbot().SLO}),
		Scen:   trace.Chatbot(),
	}
	if err := a.Setup(env); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestWatchdogTripHoldBackoffRecover(t *testing.T) {
	m := smallProfile(t)
	aum, err := NewAUM(m, Options{Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	env := watchdogEnv(t, aum)

	step := func(meets bool) bool {
		engaged, err := aum.watchdog(env, 0, meets)
		if err != nil {
			t.Fatal(err)
		}
		return engaged
	}
	violate := func(n int) {
		for i := 0; i < n; i++ {
			step(false)
		}
	}

	// A streak one short of the threshold arms but does not trip.
	for i := 0; i < watchdogN-1; i++ {
		if step(false) {
			t.Fatal("watchdog tripped before the streak threshold")
		}
	}
	if ws := aum.WatchdogState(); ws.Active || ws.Violations != watchdogN-1 {
		t.Fatalf("pre-trip state: %+v", ws)
	}
	// A compliant interval resets the streak.
	step(true)
	if ws := aum.WatchdogState(); ws.Violations != 0 {
		t.Fatalf("streak not reset: %+v", ws)
	}

	// watchdogN consecutive violations trip it: safe division, floored
	// grant.
	violate(watchdogN - 1)
	if !step(false) {
		t.Fatal("watchdog did not trip at the threshold")
	}
	ws := aum.WatchdogState()
	if !ws.Active || ws.Trips != 1 || ws.HoldRemaining != watchdogHoldTicks {
		t.Fatalf("post-trip state: %+v", ws)
	}
	if aum.Division() != 0 {
		t.Fatalf("division = %d, want the safe division 0", aum.Division())
	}
	if w, b := aum.Allocation(); w != 1 || b != 10 {
		t.Fatalf("allocation = (%d,%d), want the (1,10) floor", w, b)
	}

	// The hold keeps the machine parked regardless of measurements.
	for i := 0; i < watchdogHoldTicks; i++ {
		if !step(true) {
			t.Fatalf("watchdog released during the hold (tick %d)", i)
		}
	}
	// Hold expired but still violating: back off exponentially.
	if !step(false) {
		t.Fatal("watchdog released while still violating")
	}
	if ws := aum.WatchdogState(); ws.HoldRemaining != 2*watchdogHoldTicks {
		t.Fatalf("backoff hold = %d, want doubled to %d", ws.HoldRemaining, 2*watchdogHoldTicks)
	}
	violate(2 * watchdogHoldTicks)
	// Recovery after the hold releases control and resets the backoff.
	if step(true) {
		t.Fatal("watchdog held after recovery")
	}
	ws = aum.WatchdogState()
	if ws.Active || ws.Violations != 0 {
		t.Fatalf("post-recovery state: %+v", ws)
	}
	// A fresh trip starts from the base hold again.
	violate(watchdogN)
	if ws := aum.WatchdogState(); ws.HoldRemaining != watchdogHoldTicks || ws.Trips != 2 {
		t.Fatalf("backoff not reset after recovery: %+v", ws)
	}
}

func TestWatchdogBackoffCap(t *testing.T) {
	m := smallProfile(t)
	aum, err := NewAUM(m, Options{Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	env := watchdogEnv(t, aum)
	// Never recover: the hold must saturate at 16x the base. Doubling
	// from the base reaches the cap after four failed re-probes, which
	// takes (1+2+4+8)x the base hold plus the trip streak.
	maxHold := 0
	for i := 0; i < watchdogN+40*watchdogHoldTicks; i++ {
		if _, err := aum.watchdog(env, 0, false); err != nil {
			t.Fatal(err)
		}
		maxHold = max(maxHold, aum.WatchdogState().HoldRemaining)
	}
	if maxHold != 16*watchdogHoldTicks {
		t.Fatalf("longest hold %d, want the 16x cap %d", maxHold, 16*watchdogHoldTicks)
	}
}

func TestWatchdogStateConcurrentRead(t *testing.T) {
	m := smallProfile(t)
	aum, err := NewAUM(m, Options{Watchdog: true})
	if err != nil {
		t.Fatal(err)
	}
	env := watchdogEnv(t, aum)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			aum.WatchdogState()
		}
	}()
	// Mostly violating, so the writer trips, holds and re-probes while
	// the reader polls.
	for i := 0; i < 200; i++ {
		if _, err := aum.watchdog(env, 0, i%64 == 0); err != nil {
			t.Fatal(err)
		}
	}
	<-done
}

func TestWatchdogOffByDefault(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Watchdog {
		t.Fatal("watchdog must be opt-in")
	}
}

func TestLoadModelCorruptionDiagnostics(t *testing.T) {
	m := smallProfile(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "auv.json")
	if err := m.Save(good); err != nil {
		t.Fatal(err)
	}
	// Truncated JSON: the error names the file.
	data, _ := os.ReadFile(good)
	trunc := filepath.Join(dir, "trunc.json")
	if err := os.WriteFile(trunc, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(trunc); err == nil || !strings.Contains(err.Error(), "trunc.json") {
		t.Fatalf("truncated-file error lacks path: %v", err)
	}
	// Semantically corrupt: a zeroed bucket is named with its field.
	bad := *m
	bad.Buckets = append([]Bucket(nil), m.Buckets...)
	bad.Buckets[3].Watts = 0
	badPath := filepath.Join(dir, "bad.json")
	if err := bad.Save(badPath); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModel(badPath)
	if err == nil || !strings.Contains(err.Error(), "bucket 3") || !strings.Contains(err.Error(), "watts") {
		t.Fatalf("corrupt-bucket error lacks bucket/field: %v", err)
	}
	if !strings.Contains(err.Error(), "bad.json") {
		t.Fatalf("corrupt-bucket error lacks path: %v", err)
	}
	// Negative latency is caught too.
	bad.Buckets[3].Watts = m.Buckets[3].Watts
	bad.Buckets[5].TPOTTail = -1
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "tpot_tail") {
		t.Fatalf("negative-latency error: %v", err)
	}
}
