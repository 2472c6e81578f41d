package machine

import (
	"reflect"
	"testing"

	"aum/internal/platform"
	"aum/internal/power"
	"aum/internal/telemetry"
)

// TestObservedReplayTelemetry drives an observed machine through one
// replay-heavy StepN and checks what its registry holds: the step
// counter counts every tick, the fast-forward counter every replayed
// one, the throttle counter every tick under a throttled solution, and
// every gauge the value the last full step recorded. A twin stepped one
// tick at a time, snapshotting its gauges after each full step, is the
// reference.
func TestObservedReplayTelemetry(t *testing.T) {
	const ticks = 2000
	for _, tc := range []struct {
		name      string
		class     power.Class
		util      float64
		throttled bool
	}{
		{"scalar", power.Scalar, 0.5, false},
		{"amx-throttled", power.AMXHeavy, 1.0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*Machine, *telemetry.Registry) {
				m := New(platform.GenA())
				reg := telemetry.NewRegistry()
				m.SetTelemetry(reg)
				for i, p := range []Placement{
					{CoreLo: 0, CoreHi: 47, COS: 0},
					{CoreLo: 48, CoreHi: m.plat.Cores - 1, COS: 1},
					{CoreLo: 0, CoreHi: 47, SMTSlot: 1, COS: 2},
				} {
					app := &quietApp{envApp{class: tc.class, util: tc.util, bwGB: 40 * float64(i+1)}}
					if _, err := m.AddTask(app, p); err != nil {
						t.Fatal(err)
					}
				}
				return m, reg
			}

			batch, regBatch := build()
			batch.StepN(ticks)

			ref, regRef := build()
			var lastFull []telemetry.GaugeSnap
			var throttled uint64
			for i := 0; i < ticks; i++ {
				ff := ref.FFSteps()
				ref.StepN(1)
				if ref.FFSteps() == ff {
					lastFull = regRef.Snapshot().Gauges
				}
				if ref.ff.sol.Throttled {
					throttled++
				}
			}
			if tc.throttled != (throttled > 0) {
				t.Fatalf("%d throttled ticks, want throttled = %v", throttled, tc.throttled)
			}
			if batch.FFSteps() != ref.FFSteps() || batch.FFSteps() < ticks*9/10 {
				t.Fatalf("FFSteps = %d batched, %d tick by tick; want equal and at least 90%% of %d",
					batch.FFSteps(), ref.FFSteps(), ticks)
			}

			for _, reg := range []*telemetry.Registry{regBatch, regRef} {
				snap := reg.Snapshot()
				for name, want := range map[string]uint64{
					"aum_machine_steps_total":         ticks,
					"aum_machine_ff_steps_total":      batch.FFSteps(),
					"aum_power_throttled_steps_total": throttled,
				} {
					if got, _ := snap.CounterValue(name); got != want {
						t.Errorf("%s = %d, want %d", name, got, want)
					}
				}
				if !reflect.DeepEqual(snap.Gauges, lastFull) {
					t.Errorf("gauges %v, want the last full step's %v", snap.Gauges, lastFull)
				}
			}
			if a, b := regBatch.Snapshot().Events, regRef.Snapshot().Events; !reflect.DeepEqual(a, b) {
				t.Errorf("events differ: batched %v, tick by tick %v", a, b)
			}
		})
	}
}
