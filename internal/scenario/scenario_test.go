package scenario

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"aum/internal/chaos"
	"aum/internal/cluster"
	"aum/internal/trace"
)

const minimal = `{"version": 1, "name": "min"}`

func TestParseMinimal(t *testing.T) {
	s, err := Parse([]byte(minimal))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "min" || s.Version != 1 {
		t.Fatalf("parsed %+v", s)
	}
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// The minimal scenario is the smallest meaningful experiment: one
	// GenA under exclusive AU use, defaults everywhere else.
	if len(cfg.Machines) != 1 || cfg.Machines[0].Plat.Name != "GenA" {
		t.Fatalf("minimal fleet: %+v", cfg.Machines)
	}
	if cfg.HorizonS != 0 || cfg.Seed != 0 {
		t.Fatalf("minimal scenario must leave cluster defaults to the cluster: %+v", cfg)
	}
}

func TestParseJSONCAndTrailingCommas(t *testing.T) {
	src := `// a comment
	{
	  /* block
	     comment */
	  "version": 1, // trailing line comment
	  "name": "jsonc", // "quotes // inside a comment"
	  "arrival": { "rate_per_s": 2.0, },
	  "fleet": {
	    "machines": [
	      { "platform": "GenA" },
	    ],
	  },
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "jsonc" || s.Arrival.RatePerS != 2.0 {
		t.Fatalf("parsed %+v", s)
	}
}

func TestStringsSurviveStripping(t *testing.T) {
	// URLs and comment-looking content inside strings must not be eaten.
	src := `{"version": 1, "name": "a//b", "description": "see https://example.com /* not a comment */"}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "a//b" || !strings.Contains(s.Description, "https://example.com") {
		t.Fatalf("string content damaged: %+v", s)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"version": 1, "name": "x", "rate": 3}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "scenario:") || !strings.Contains(err.Error(), `rate`) {
		t.Fatalf("unknown-field error lost context: %v", err)
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(minimal + `{"version": 1, "name": "second"}`)); err == nil {
		t.Fatal("second document accepted")
	}
}

// Every invalid input yields a "scenario:"-prefixed error naming the
// offending field's dotted path.
func TestValidationFieldPaths(t *testing.T) {
	cases := []struct {
		name, src, path string
	}{
		{"version", `{"version": 2, "name": "x"}`, "Spec.Version"},
		{"no-name", `{"version": 1}`, "Spec.Name"},
		{"neg-horizon", `{"version": 1, "name": "x", "horizon_s": -1}`, "Spec.HorizonS"},
		{"huge-horizon", `{"version": 1, "name": "x", "horizon_s": 1e9}`, "Spec.HorizonS"},
		{"neg-warmup", `{"version": 1, "name": "x", "warmup_s": -1}`, "Spec.WarmupS"},
		{"bad-trace", `{"version": 1, "name": "x", "base": {"trace": "webserving"}}`, "Spec.Base.Trace"},
		{"base-both", `{"version": 1, "name": "x", "base": {"trace": "cb", "name": "inline"}}`, "Spec.Base"},
		{"base-empty", `{"version": 1, "name": "x", "base": {}}`, "Spec.Base"},
		{"inline-no-slo", `{"version": 1, "name": "x", "base": {"name": "i", "mean_input": 10, "mean_output": 10, "sigma_input": 1, "sigma_output": 1}}`, "Spec.Base.SLO"},
		{"neg-rate", `{"version": 1, "name": "x", "arrival": {"rate_per_s": -2}}`, "Spec.Arrival.RatePerS"},
		{"bad-shape", `{"version": 1, "name": "x", "arrival": {"shape": {"kind": "sawtooth"}}}`, "Spec.Arrival.Shape.Kind"},
		{"amp-1", `{"version": 1, "name": "x", "arrival": {"shape": {"kind": "diurnal", "period_s": 10, "amplitude": 1}}}`, "Spec.Arrival.Shape.Amplitude"},
		{"flash-both", `{"version": 1, "name": "x", "arrival": {"shape": {"kind": "flash", "at_s": 2, "at_frac": 0.5, "ramp_s": 1, "peak": 2}}}`, "Spec.Arrival.Shape.AtS/AtFrac"},
		{"flash-no-legs", `{"version": 1, "name": "x", "arrival": {"shape": {"kind": "flash", "at_s": 2, "peak": 2}}}`, "Spec.Arrival.Shape.RampS"},
		{"burst-gap", `{"version": 1, "name": "x", "arrival": {"shape": {"kind": "bursts", "mean_gap_s": 0, "dur_s": 1, "factor": 2}}}`, "Spec.Arrival.Shape.MeanGapS"},
		{"tenants-0", `{"version": 1, "name": "x", "arrival": {"tenants": {"count": 0}}}`, "Spec.Arrival.Tenants.Count"},
		{"qps-both", `{"version": 1, "name": "x", "arrival": {"qps": [{"at_s": 1, "at_frac": 0.5, "rate_per_s": 2}]}}`, "Spec.Arrival.QPS[0]"},
		{"qps-neither", `{"version": 1, "name": "x", "arrival": {"qps": [{"rate_per_s": 2}]}}`, "Spec.Arrival.QPS[0]"},
		{"qps-rate", `{"version": 1, "name": "x", "arrival": {"qps": [{"at_s": 1, "rate_per_s": 0}]}}`, "Spec.Arrival.QPS[0].RatePerS"},
		{"no-platform", `{"version": 1, "name": "x", "fleet": {"machines": [{}]}}`, "Spec.Fleet.Machines[0].Platform"},
		{"bad-manager", `{"version": 1, "name": "x", "fleet": {"machines": [{"platform": "GenA", "manager": "aum"}]}}`, "Spec.Fleet.Machines[0].Manager"},
		{"bad-role", `{"version": 1, "name": "x", "fleet": {"machines": [{"platform": "GenA", "role": "router"}]}}`, "Spec.Fleet.Machines[0].Role"},
		{"bad-group-trace", `{"version": 1, "name": "x", "fleet": {"machines": [{"platform": "GenA", "trace": "nope"}]}}`, "Spec.Fleet.Machines[0].Trace"},
		{"bad-policy", `{"version": 1, "name": "x", "fleet": {"policy": "random"}}`, "Spec.Fleet.Policy"},
		{"faults-empty", `{"version": 1, "name": "x", "faults": {}}`, "Spec.Faults"},
		{"storm-down", `{"version": 1, "name": "x", "faults": {"storm": {"machines": 2, "crashes": 1}}}`, "Spec.Faults.Storm.DownS/DownFrac"},
		{"storm-down-both", `{"version": 1, "name": "x", "faults": {"storm": {"machines": 2, "crashes": 1, "down_s": 1, "down_frac": 0.1}}}`, "Spec.Faults.Storm.DownS/DownFrac"},
		{"event-kind", `{"version": 1, "name": "x", "faults": {"events": [{"at_s": 1, "kind": "meteor", "machine": 0}]}}`, "Spec.Faults.Events[0].Kind"},
		{"event-factor", `{"version": 1, "name": "x", "faults": {"events": [{"at_s": 1, "kind": "straggler", "machine": 0, "factor": 0}]}}`, "Spec.Faults.Events[0].Factor"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.src))
			if err == nil {
				t.Fatalf("accepted %s", c.src)
			}
			if !strings.Contains(err.Error(), "scenario:") || !strings.Contains(err.Error(), c.path) {
				t.Fatalf("error %q does not name %q", err, c.path)
			}
		})
	}
}

// NaN/Inf cannot be spelled in JSON but a Go caller can build them;
// Validate must reject rather than let them poison a simulation.
func TestValidateRejectsNonFinite(t *testing.T) {
	s := &Spec{Version: 1, Name: "x", HorizonS: math.NaN()}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Spec.HorizonS") {
		t.Fatalf("NaN horizon: %v", err)
	}
	s = &Spec{Version: 1, Name: "x", Arrival: &ArrivalSpec{RatePerS: math.Inf(1)}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Spec.Arrival.RatePerS") {
		t.Fatalf("Inf rate: %v", err)
	}
	s = &Spec{Version: 1, Name: "x", Arrival: &ArrivalSpec{
		Shape: &ShapeSpec{Kind: "diurnal", PeriodS: math.Inf(-1)}}}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "Spec.Arrival.Shape.PeriodS") {
		t.Fatalf("Inf period: %v", err)
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.json", `{"version": 1, "name": "bee"}`)
	write("a.jsonc", `{"version": 1, "name": "ay"} // jsonc`)
	write("ignored.txt", "not a scenario")
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "ay" || specs[1].Name != "bee" {
		t.Fatalf("want [ay bee] in file-name order, got %+v", specs)
	}

	write("c.json", `{"version": 1, "name": "bee"}`)
	if _, err := LoadDir(dir); err == nil || !strings.Contains(err.Error(), "duplicate scenario name") {
		t.Fatalf("duplicate name: %v", err)
	}

	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("empty directory accepted")
	}
	if _, err := LoadDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing directory accepted")
	}
}

func TestLoadErrorsNameTheFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.json")
	if err := os.WriteFile(path, []byte(`{"version": 1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(path)
	if err == nil || !strings.Contains(err.Error(), "broken.json") || !strings.Contains(err.Error(), "Spec.Name") {
		t.Fatalf("file-path context missing: %v", err)
	}
	if strings.Count(err.Error(), "scenario:") != 1 {
		t.Fatalf("package prefix stutters: %v", err)
	}
}

// Compile lowers every declared dimension onto the cluster config it
// claims to: shapers, mixtures, QPS steps, fleet expansion, faults.
func TestCompileLowering(t *testing.T) {
	s, err := Parse([]byte(`{
	  "version": 1,
	  "name": "full",
	  "seed": 7,
	  "horizon_s": 30,
	  "model": "llama3-8b",
	  "base": { "trace": "summ" },
	  "arrival": {
	    "rate_per_s": 2.5,
	    "shape": { "kind": "diurnal", "period_s": 30, "amplitude": 0.5 },
	    "tenants": { "count": 4 },
	    "qps": [{ "at_frac": 0.5, "rate_per_s": 5 }]
	  },
	  "fleet": {
	    "machines": [
	      { "platform": "GenA", "count": 2, "manager": "smt-au" },
	      { "platform": "GenB", "role": "decode", "standby": true, "trace": "code" }
	    ],
	    "policy": "least-queued",
	    "barrier_s": 0.1,
	    "autoscale": { "hold_barriers": 3 },
	    "link": { "gbps": 50 }
	  },
	  "faults": {
	    "storm": { "machines": 2, "crashes": 1, "down_frac": 0.1 },
	    "events": [{ "at_frac": 0.25, "kind": "straggler", "machine": 1, "duration_s": 2, "factor": 0.5 }]
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Model.Name != "llama3-8b" || cfg.Scen.Dataset != "LongBench" {
		t.Fatalf("model/base: %v %v", cfg.Model.Name, cfg.Scen.Dataset)
	}
	if cfg.Scen.Name != "full" {
		t.Fatalf("shaped class must take the scenario name, got %q", cfg.Scen.Name)
	}
	if _, ok := cfg.Scen.Shape.(trace.Diurnal); !ok {
		t.Fatalf("shape: %T", cfg.Scen.Shape)
	}
	if len(cfg.Scen.Mix) != 4 {
		t.Fatalf("mix: %d components", len(cfg.Scen.Mix))
	}
	if len(cfg.QPS) != 1 || cfg.QPS[0].At != 15 || cfg.QPS[0].RatePerS != 5 {
		t.Fatalf("qps: %+v", cfg.QPS)
	}
	if len(cfg.Machines) != 3 {
		t.Fatalf("fleet expanded to %d machines", len(cfg.Machines))
	}
	if cfg.Machines[0].Plat.Name != "GenA" || cfg.Machines[2].Plat.Name != "GenB" {
		t.Fatalf("platforms: %v %v", cfg.Machines[0].Plat.Name, cfg.Machines[2].Plat.Name)
	}
	if cfg.Machines[2].Role != cluster.RoleDecode || !cfg.Machines[2].Standby {
		t.Fatalf("group attrs: %+v", cfg.Machines[2])
	}
	if cfg.Machines[2].Scen == nil || cfg.Machines[2].Scen.Name != "cc" {
		t.Fatalf("group trace override: %+v", cfg.Machines[2].Scen)
	}
	if cfg.Policy != cluster.LeastQueued || cfg.BarrierS != 0.1 {
		t.Fatalf("policy/barrier: %v %v", cfg.Policy, cfg.BarrierS)
	}
	if cfg.Autoscale == nil || cfg.Autoscale.HoldBarriers != 3 {
		t.Fatalf("autoscale: %+v", cfg.Autoscale)
	}
	if cfg.Link.GBps != 50 {
		t.Fatalf("link: %+v", cfg.Link)
	}
	if cfg.Faults == nil {
		t.Fatal("faults dropped")
	}
	sched := *cfg.Faults
	// CrashStorm(2, 1, 30, 3, 7) plus the explicit straggler at 7.5 s.
	want := chaos.CrashStorm(2, 1, 30, 3, 7)
	if len(sched.Events) != len(want.Events)+1 {
		t.Fatalf("fault events: %d, want %d storm + 1 explicit", len(sched.Events), len(want.Events))
	}
	last := sched.Events[len(sched.Events)-1]
	if last.Kind != chaos.Straggler || last.At != 7.5 || last.Machine != 1 || last.Duration != 2 || last.Factor != 0.5 {
		t.Fatalf("explicit event: %+v", last)
	}
}

func TestCompileRejectsUnknownModel(t *testing.T) {
	s := &Spec{Version: 1, Name: "x", Model: "gpt-17"}
	if _, err := s.Compile(); err == nil || !strings.Contains(err.Error(), "Spec.Model") {
		t.Fatalf("model: %v", err)
	}
}

func TestCompileInlineBase(t *testing.T) {
	s, err := Parse([]byte(`{
	  "version": 1, "name": "inline",
	  "base": {
	    "name": "tickets", "mean_input": 300, "mean_output": 50,
	    "sigma_input": 0.8, "sigma_output": 0.5,
	    "slo": { "ttft_s": 0.4, "tpot_s": 0.12 }
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := s.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sc := cfg.Scen
	if sc.Name != "tickets" || sc.MeanInput != 300 || sc.SLO.TTFT != 0.4 || sc.RatePerS != 1 {
		t.Fatalf("inline base: %+v", sc)
	}
}

// The whole shipped library loads, lints, and runs end to end.
func TestLibraryScenarios(t *testing.T) {
	specs, err := LoadDir("library")
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 8 {
		t.Fatalf("library holds %d scenarios, the contract says >= 8", len(specs))
	}
	for _, s := range specs {
		if s.Description == "" {
			t.Errorf("%s: library scenarios must carry a description", s.Name)
		}
		if _, err := s.Compile(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	// One full run through the smallest member keeps this cheap.
	cfg, err := specs[0].Compile()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 2
	res, err := cluster.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GoodTokensPS <= 0 {
		t.Fatalf("library scenario %q served nothing: %+v", specs[0].Name, res)
	}
}
