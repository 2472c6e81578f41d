package aum

import (
	"path/filepath"
	"testing"
)

func TestFacadeCatalogs(t *testing.T) {
	if len(Platforms()) != 3 || len(Models()) != 6 || len(Scenarios()) != 3 || len(CoRunners()) != 3 {
		t.Fatal("catalog sizes diverge from the paper")
	}
	if _, err := PlatformByName("GenA"); err != nil {
		t.Fatal(err)
	}
	if _, err := ModelByName("llama2-7b"); err != nil {
		t.Fatal(err)
	}
	if _, err := ScenarioByName("cb"); err != nil {
		t.Fatal(err)
	}
	if _, err := CoRunnerByName("SPECjbb"); err != nil {
		t.Fatal(err)
	}
	if len(Experiments()) < 20 {
		t.Fatalf("only %d experiments registered", len(Experiments()))
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end facade test skipped in -short")
	}
	plat := GenA()
	model := Llama2_7B()
	scen, _ := ScenarioByName("cb")
	jbb, _ := CoRunnerByName("SPECjbb")

	auv, err := Profile(plat, model, scen, jbb, ProfilerOptions{Reps: 1, HorizonS: 6})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "auv.json")
	if err := auv.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadAUVModel(path)
	if err != nil {
		t.Fatal(err)
	}

	mgr, err := NewAUM(loaded, ControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(RunConfig{
		Plat: plat, Model: model, Scen: scen, BE: &jbb,
		Manager: mgr, HorizonS: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	excl, err := Run(RunConfig{
		Plat: plat, Model: model, Scen: scen,
		Manager: NewExclusive(), HorizonS: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerfN <= 0 {
		t.Fatal("AUM harvested nothing")
	}
	if excl.PerfN != 0 {
		t.Fatal("exclusive run shared")
	}
	if res.RawPerfL <= 0 || excl.RawPerfL <= 0 {
		t.Fatal("serving throughput missing")
	}
}

func TestRunExperimentQuick(t *testing.T) {
	tbl, err := RunExperiment("table1", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatal("table1 rows")
	}
	if _, err := RunExperiment("nope", ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestFleetFacade drives the fourth (fleet) layer entirely through the
// public API: a run with autoscaling and a disaggregated run.
func TestFleetFacade(t *testing.T) {
	scen, _ := ScenarioByName("cb")
	res, err := RunFleet(FleetConfig{
		Machines: []MachineSpec{
			{Plat: GenA(), Mgr: NewExclusive()},
			{Plat: GenA(), Mgr: NewExclusive(), Standby: true},
		},
		Model:     Llama2_7B(),
		Scen:      scen,
		Policy:    AUVAware,
		HorizonS:  6,
		WarmupS:   1,
		RatePerS:  0.5,
		QPS:       []RatePoint{{At: 2, RatePerS: 4}},
		Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 0.5},
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "auv-aware" || res.Nodes != 2 || res.GoodTokensPS <= 0 {
		t.Fatalf("fleet run implausible: %+v", res)
	}
	if len(res.ScaleEvents) == 0 {
		t.Fatal("surge produced no scale events")
	}

	lit, err := RunFleet(FleetConfig{
		Machines: []MachineSpec{
			{Plat: GenA(), Mgr: NewExclusive(), Role: RolePrefill},
			{Plat: GenA(), Mgr: NewExclusive(), Role: RoleDecode},
		},
		Model: Llama2_7B(), Scen: scen, HorizonS: 6, Seed: 3, RatePerS: 0.8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lit.Handoffs == 0 {
		t.Fatal("disaggregated fleet moved no KV caches")
	}

	if _, err := RunFleet(FleetConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if p, err := ParseBalancePolicy("least-queued"); err != nil || p != LeastQueued {
		t.Fatalf("ParseBalancePolicy: %v, %v", p, err)
	}
}
