package colo

import (
	"reflect"
	"testing"

	"aum/internal/chaos"
	"aum/internal/telemetry"
	"aum/internal/workload"
)

// TestTelemetryDoesNotChangeResults pins the determinism contract:
// telemetry observes the run but never feeds back, so an instrumented
// run is byte-identical to a plain one.
func TestTelemetryDoesNotChangeResults(t *testing.T) {
	cfg := baseConfig()
	cfg.Manager = sharedMgr{}
	jbb := workload.SPECjbb()
	cfg.BE = &jbb
	cfg.HorizonS = 6
	sched := chaos.Schedule{Events: []chaos.Event{
		{At: 2, Kind: chaos.PhaseFlip, Duration: 1.6},
		{At: 2.8, Kind: chaos.CoreOffline, Cores: 8, Duration: 0.8},
		{At: 4.4, Kind: chaos.PhaseFlip},
	}}
	cfg.Chaos = &sched

	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Telemetry = telemetry.NewRegistry()
	cfg.TraceSink = telemetry.NewTrace()
	instrumented, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, instrumented) {
		t.Fatalf("telemetry changed the run result:\nplain: %+v\ninstrumented: %+v", plain, instrumented)
	}

	snap := cfg.Telemetry.Snapshot()
	if v, ok := snap.CounterValue("aum_serve_prefills_total"); !ok || v == 0 {
		t.Fatalf("prefill counter missing or zero (ok=%v v=%d)", ok, v)
	}
	if v, ok := snap.CounterValue("aum_machine_steps_total"); !ok || v == 0 {
		t.Fatalf("machine step counter missing or zero (ok=%v v=%d)", ok, v)
	}
	if _, ok := snap.GaugeValue("aum_power_package_watts"); !ok {
		t.Fatal("package watts gauge missing")
	}
	if v, ok := snap.CounterValue("aum_chaos_faults_total"); !ok || v == 0 {
		t.Fatalf("chaos fault counter missing or zero (ok=%v v=%d)", ok, v)
	}
	chaosEvents := map[string]int{}
	for _, ev := range snap.Events {
		if ev.Cat == "chaos" {
			chaosEvents[ev.Name]++
		}
	}
	if chaosEvents["fault-inject"] != 3 || chaosEvents["fault-revert"] != 2 {
		t.Fatalf("chaos events = %v, want 3 fault-inject and 2 fault-revert", chaosEvents)
	}
	hs, ok := snap.HistogramSnapFor("aum_serve_ttft_seconds")
	if !ok || hs.Count == 0 {
		t.Fatalf("ttft histogram missing or empty (ok=%v)", ok)
	}
	if cfg.TraceSink.Len() == 0 {
		t.Fatal("trace sink collected no events")
	}

	// A second instrumented run with a fresh registry reproduces the
	// same metric values — simulated time only, no wall clock.
	reg2 := telemetry.NewRegistry()
	cfg.Telemetry, cfg.TraceSink = reg2, nil
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	a, b := snap, reg2.Snapshot()
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatal("counters differ across identical runs")
	}
	if !reflect.DeepEqual(a.Histograms, b.Histograms) {
		t.Fatal("histograms differ across identical runs")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("events differ across identical runs")
	}
}
