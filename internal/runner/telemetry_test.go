package runner

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aum/internal/telemetry"
)

// TestScenarioCounter verifies that every scenario is counted once on
// the registry regardless of the worker count. Run under -race this
// also exercises the registry's concurrency safety with real pool
// contention.
func TestScenarioCounter(t *testing.T) {
	const n = 10
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			err := ForEach(context.Background(), n, Options{Workers: workers, Telemetry: reg},
				func(ctx context.Context, i int) error {
					reg.Counter("work_items_total").Inc()
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			snap := reg.Snapshot()
			for _, name := range []string{"aum_runner_scenarios_total", "work_items_total"} {
				if v, ok := snap.CounterValue(name); !ok || v != n {
					t.Fatalf("%s = %d (ok=%v), want %d", name, v, ok, n)
				}
			}
			if _, ok := snap.CounterValue("aum_runner_panics_total"); ok {
				t.Fatal("panic counter registered without a panic")
			}
		})
	}
}

// TestPanicCounter: scenario panics are counted on the registry.
func TestPanicCounter(t *testing.T) {
	reg := telemetry.NewRegistry()
	err := ForEach(context.Background(), 4, Options{Workers: 2, Telemetry: reg},
		func(ctx context.Context, i int) error {
			if i == 2 {
				panic("boom")
			}
			return nil
		})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if v, _ := reg.Snapshot().CounterValue("aum_runner_panics_total"); v != 1 {
		t.Fatalf("panic counter = %d, want 1", v)
	}
}
