package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"aum/internal/chaos"
	"aum/internal/cluster"
	"aum/internal/experiments"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/trace"
)

// The differential contract: a scenario file that re-declares a
// Go-built experiment must produce the byte-identical cluster.Result
// at every worker width. The mirrors
// under testdata/diff re-declare the fleet and fleetchaos experiment
// rows at the Quick horizon (20 s, seed 42); goRef* below are the same
// configurations the experiments build, restated literally.

const diffHorizon = 20.0 // experiments' Quick horizon

// goRefFleet restates the fleet experiment's five row configs.
func goRefFleet() map[string]cluster.Config {
	hetero := func() []cluster.MachineSpec {
		return []cluster.MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
		}
	}
	cfgs := map[string]cluster.Config{}
	for _, pol := range []cluster.BalancePolicy{cluster.RoundRobin, cluster.LeastQueued, cluster.AUVAware} {
		cfgs["fleet-"+pol.String()] = cluster.Config{
			Machines: hetero(), Scen: trace.Chatbot(), Policy: pol,
			HorizonS: diffHorizon, Seed: 42, RatePerS: 3.0,
		}
	}
	cfgs["fleet-autoscale"] = cluster.Config{
		Machines: []cluster.MachineSpec{
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
		},
		Scen: trace.Chatbot(), Policy: cluster.AUVAware,
		HorizonS: diffHorizon, Seed: 42, RatePerS: 1.0,
		QPS: []cluster.RatePoint{
			{At: diffHorizon / 3, RatePerS: 4.0},
			{At: 2 * diffHorizon / 3, RatePerS: 1.0},
		},
		Autoscale: &cluster.AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
	}
	cfgs["fleet-disagg"] = cluster.Config{
		Machines: []cluster.MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: cluster.RolePrefill},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}, Role: cluster.RoleDecode},
		},
		Scen: trace.Chatbot(), Policy: cluster.RoundRobin,
		HorizonS: diffHorizon, Seed: 42, RatePerS: 1.5,
	}
	return cfgs
}

// goRefChaos restates the fleetchaos experiment's crashes=0 and
// crashes=2 row configs.
func goRefChaos() map[string]cluster.Config {
	fleet := func() []cluster.MachineSpec {
		specs := make([]cluster.MachineSpec, 0, 6)
		for i := 0; i < 4; i++ {
			specs = append(specs, cluster.MachineSpec{Plat: platform.GenA(), Mgr: manager.AllAU{}})
		}
		return append(specs,
			cluster.MachineSpec{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			cluster.MachineSpec{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true})
	}
	base := func() cluster.Config {
		return cluster.Config{
			Machines: fleet(), Scen: trace.Chatbot(), Policy: cluster.AUVAware,
			HorizonS: diffHorizon, Seed: 42, RatePerS: 2.0,
			Autoscale: &cluster.AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		}
	}
	cfgs := map[string]cluster.Config{"fleetchaos-0": base()}
	withStorm := base()
	withStorm.Faults = &cluster.FaultConfig{
		Schedule: chaos.CrashStorm(4, 2, diffHorizon, diffHorizon/8, 42),
	}
	cfgs["fleetchaos-2"] = withStorm
	return cfgs
}

// resultBytes is the byte-identity witness: every exported field of the
// result, serialized canonically.
func resultBytes(t *testing.T, res cluster.Result) []byte {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDifferentialScenarioParity(t *testing.T) {
	refs := goRefFleet()
	for name, cfg := range goRefChaos() {
		refs[name] = cfg
	}

	widths := []int{1, 2, 8}
	if testing.Short() {
		widths = []int{1, 8}
	}
	for name, refCfg := range refs {
		t.Run(name, func(t *testing.T) {
			spec, err := Load(filepath.Join("testdata", "diff", name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			refRes, err := cluster.Run(refCfg)
			if err != nil {
				t.Fatal(err)
			}
			want := resultBytes(t, refRes)
			for _, w := range widths {
				res, err := Run(spec, RunOptions{Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if got := resultBytes(t, res); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: scenario result diverged from the Go path\n got: %s\nwant: %s",
						w, got, want)
				}
			}
		})
	}
}

// The table-level form of the same contract: rebuilding the fleet and
// fleetchaos experiment tables from scenario files reproduces the
// registered experiments' rendered rows byte-for-byte.
func TestDifferentialExperimentTables(t *testing.T) {
	lab := experiments.NewLab()
	opt := experiments.Options{Quick: true, Seed: 42}

	runDSL := func(t *testing.T, name string, workers int) cluster.Result {
		t.Helper()
		spec, err := Load(filepath.Join("testdata", "diff", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(spec, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("fleet", func(t *testing.T) {
		e, err := experiments.ByID("fleet")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := e.Run(lab, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := &experiments.Table{ID: ref.ID, Title: ref.Title, Columns: ref.Columns, Notes: ref.Notes}
		// Rows must land in the experiment's order.
		for _, rc := range []struct{ label, file string }{
			{"round-robin", "fleet-round-robin"},
			{"least-queued", "fleet-least-queued"},
			{"auv-aware", "fleet-auv-aware"},
			{"auv+autoscale", "fleet-autoscale"},
			{"disagg-pd", "fleet-disagg"},
		} {
			res := runDSL(t, rc.file, lab.Workers())
			got.AddRow(rc.label, res.Eff, res.GoodTokensPS, res.TPOTGuar, res.Imbalance,
				res.Watts, res.MachineSecondsActive, float64(res.Handoffs))
		}
		compareTables(t, ref, got)
	})

	t.Run("fleetchaos", func(t *testing.T) {
		e, err := experiments.ByID("fleetchaos")
		if err != nil {
			t.Fatal(err)
		}
		ref, err := e.Run(lab, opt)
		if err != nil {
			t.Fatal(err)
		}
		// The scenario mirrors cover the crashes=0 and crashes=2 rows.
		sub := &experiments.Table{ID: ref.ID, Title: ref.Title, Columns: ref.Columns}
		for _, row := range ref.Rows {
			if row.Label == "crashes=0" || row.Label == "crashes=2" {
				sub.Rows = append(sub.Rows, row)
			}
		}
		if len(sub.Rows) != 2 {
			t.Fatalf("reference table lost its crash rows: %+v", ref.Rows)
		}
		got := &experiments.Table{ID: ref.ID, Title: ref.Title, Columns: ref.Columns}
		for _, rc := range []struct{ label, file string }{
			{"crashes=0", "fleetchaos-0"},
			{"crashes=2", "fleetchaos-2"},
		} {
			res := runDSL(t, rc.file, lab.Workers())
			got.AddRow(rc.label, res.Availability, res.MTTRs, res.GoodTokensPS,
				res.TTFTp99, float64(res.Redispatched), float64(res.Recomputed),
				float64(res.FailedRequests), res.Watts)
		}
		compareTables(t, sub, got)
	})
}

// compareTables demands byte identity of the canonical serialization.
func compareTables(t *testing.T, want, got *experiments.Table) {
	t.Helper()
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf("tables diverged\n got: %s\nwant: %s", gb, wb)
	}
}

// The exact float literals in fleet-autoscale.json must equal the
// values the Go path computes from the horizon — if this drifts, the
// byte-identity above fails mysteriously; this test fails legibly.
func TestDiffScenarioFloatLiterals(t *testing.T) {
	spec, err := Load(filepath.Join("testdata", "diff", "fleet-autoscale.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.QPS) != 2 {
		t.Fatalf("QPS points: %+v", cfg.QPS)
	}
	for i, want := range []float64{diffHorizon / 3, 2 * diffHorizon / 3} {
		if cfg.QPS[i].At != want {
			t.Fatalf("QPS[%d].At = %v, want the Go path's %v (Δ=%g)",
				i, cfg.QPS[i].At, want, cfg.QPS[i].At-want)
		}
	}
	spec2, err := Load(filepath.Join("testdata", "diff", "fleetchaos-2.json"))
	if err != nil {
		t.Fatal(err)
	}
	cfg2, err := spec2.Compile()
	if err != nil {
		t.Fatal(err)
	}
	wantSched := chaos.CrashStorm(4, 2, diffHorizon, diffHorizon/8, 42)
	gotSched := cfg2.Faults.Schedule
	if fmt.Sprintf("%+v", gotSched) != fmt.Sprintf("%+v", wantSched) {
		t.Fatalf("storm schedule diverged\n got: %+v\nwant: %+v", gotSched, wantSched)
	}
}
