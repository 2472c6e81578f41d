package experiments

import (
	"math"
	"reflect"
	"testing"

	"aum/internal/chaos"
	"aum/internal/cluster"
)

// TestScenarioFilesAtBothHorizons compiles every embedded fleet scenario
// at the quick (20 s) and the full (60 s) horizon. The goldens run only
// the quick one, so this pins what the full horizon resolves to: the
// autoscale surge steps at H/3 and 2H/3 (at_frac lands one ulp off at
// 20 s and exactly at 60 s), and each crash storm equals the schedule
// the experiments have always injected, CrashStorm(4, n, H, H/8, seed).
func TestScenarioFilesAtBothHorizons(t *testing.T) {
	entries, err := scenarioFiles.ReadDir("scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("embedded scenario files: %d, want 4", len(entries))
	}
	compile := func(t *testing.T, r scenarioRow, o Options) cluster.Config {
		t.Helper()
		s, err := r.spec(o)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := s.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	for _, o := range []Options{{Quick: true, Seed: 42}, {Seed: 42}} {
		h, _, _ := o.horizons()
		t.Run(map[bool]string{true: "quick", false: "full"}[o.Quick], func(t *testing.T) {
			for _, e := range entries {
				file := e.Name()[:len(e.Name())-len(".json")]
				if cfg := compile(t, scenarioRow{file: file}, o); cfg.HorizonS != h || cfg.Seed != o.Seed {
					t.Errorf("%s: horizon %v seed %d, want %v and %d", file, cfg.HorizonS, cfg.Seed, h, o.Seed)
				}
			}

			qps := compile(t, scenarioRow{file: "fleet-autoscale"}, o).QPS
			if len(qps) != 2 {
				t.Fatalf("autoscale QPS points: %+v", qps)
			}
			for i, want := range []float64{h / 3, 2 * h / 3} {
				if d := math.Abs(qps[i].At - want); d > 1e-9 || (h == 60 && d != 0) {
					t.Errorf("QPS[%d].At = %v, want %v", i, qps[i].At, want)
				}
			}

			if cfg := compile(t, stormRow(0), o); cfg.Faults != nil {
				t.Errorf("crashes=0 attached faults: %+v", cfg.Faults)
			}
			for _, n := range []int{1, 2, 4} {
				got := *compile(t, stormRow(n), o).Faults
				if want := chaos.CrashStorm(4, n, h, h/8, o.Seed); !reflect.DeepEqual(got, want) {
					t.Errorf("crashes=%d storm\n got: %+v\nwant: %+v", n, got, want)
				}
			}
		})
	}
}
