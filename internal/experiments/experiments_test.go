package experiments

import (
	"reflect"
	"strings"
	"testing"

	"aum/internal/llm"
	"aum/internal/platform"
	"aum/internal/trace"
	"aum/internal/workload"
)

func TestRegistryComplete(t *testing.T) {
	// Every table and figure in the paper's evaluation has exactly one
	// registered experiment.
	want := []string{
		"table1", "table2", "table3",
		"fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9",
		"fig10", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"sens", "overhead", "tco", "chaos",
	}
	ids := IDs()
	got := map[string]bool{}
	for _, id := range ids {
		if got[id] {
			t.Fatalf("duplicate experiment id %q", id)
		}
		got[id] = true
	}
	for _, id := range want {
		if !got[id] {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	for _, e := range Registry() {
		if e.Paper == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %q missing metadata", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	e, err := ByID("fig14")
	if err != nil || e.ID != "fig14" {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestTableHelpers(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}}
	tbl.AddRow("r1", 1, 2)
	tbl.AddRow("r2", 3, 4)
	tbl.AddNote("note %d", 7)
	if v, ok := tbl.Get("r2", "b"); !ok || v != 4 {
		t.Fatalf("Get = %v %v", v, ok)
	}
	if _, ok := tbl.Get("r2", "c"); ok {
		t.Fatal("missing column found")
	}
	if _, ok := tbl.Get("r9", "a"); ok {
		t.Fatal("missing row found")
	}
	out := tbl.Render()
	for _, frag := range []string{"demo", "r1", "note 7", "== x"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("render missing %q:\n%s", frag, out)
		}
	}
}

// TestCheapExperiments runs the analytic (non-simulation) experiments
// end to end and sanity-checks their headline shapes.
func TestCheapExperiments(t *testing.T) {
	lab := NewLab()
	o := Options{Quick: true}

	t.Run("table1", func(t *testing.T) {
		tbl, err := runTable1(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 3 {
			t.Fatal("Table I lists three platforms")
		}
	})

	t.Run("table2", func(t *testing.T) {
		tbl, err := runTable2(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		cycP, _ := tbl.Get("llama2-7b(7B)", "cycP")
		cycD, _ := tbl.Get("llama2-7b(7B)", "cycD")
		if cycP < 10 || cycP > 25 || cycD > 3 {
			t.Fatalf("llama2-7b AMX cycle ratios %v/%v off Table II", cycP, cycD)
		}
		dbP, _ := tbl.Get("llama2-7b(7B)", "DBP")
		dbD, _ := tbl.Get("llama2-7b(7B)", "DBD")
		if dbD < dbP {
			t.Fatal("decode must be more DRAM bound than prefill")
		}
	})

	t.Run("fig4", func(t *testing.T) {
		tbl, err := runFig4(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.Rows {
			for _, v := range r.Values {
				if v < 1 {
					t.Fatalf("%s has AU slowdown %v", r.Label, v)
				}
			}
		}
	})

	t.Run("fig6a", func(t *testing.T) {
		tbl, err := runFig6a(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		pre, _ := tbl.Get("prefill", "n=96")
		dec, _ := tbl.Get("decode", "n=96")
		if pre != 2.5 || dec != 3.1 {
			t.Fatalf("license anchors: prefill %v decode %v", pre, dec)
		}
	})

	t.Run("fig6b", func(t *testing.T) {
		tbl, err := runFig6b(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		// The 12-24 window dips below the unshared frequency.
		base, _ := tbl.Get("Compute", "k=0")
		dip, _ := tbl.Get("Compute", "k=16")
		if dip >= base {
			t.Fatal("heat-accumulation dip missing")
		}
	})

	t.Run("fig8", func(t *testing.T) {
		tbl, err := runFig8(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		dBW, _ := tbl.Get("decode", "dram-BW")
		dLat, _ := tbl.Get("decode", "dram-lat")
		if dBW <= dLat {
			t.Fatal("decode DRAM stalls must be bandwidth-dominated")
		}
	})

	t.Run("fig13", func(t *testing.T) {
		tbl, err := runFig13(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		lo, _ := tbl.Get("GenA/prefill", "w=2")
		hi, _ := tbl.Get("GenA/prefill", "w=15")
		if lo >= hi {
			t.Fatal("GenA prefill should gain from LLC ways")
		}
		dLo, _ := tbl.Get("GenA/decode", "w=2")
		if dLo < 0.95 {
			t.Fatalf("decode should be nearly LLC-insensitive, got %v at 2 ways", dLo)
		}
	})
}

// TestSimulatedExperimentQuick exercises one full simulation-backed
// experiment in quick mode.
func TestSimulatedExperimentQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short")
	}
	lab := NewLab()
	tbl, err := runFig12(lab, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 { // exclusive + 3 dividings
		t.Fatalf("fig12 rows = %d", len(tbl.Rows))
	}
	for _, r := range tbl.Rows[1:] {
		if r.Values[0] <= 0 || r.Values[0] > 1.6 {
			t.Fatalf("%s prefill-rel = %v implausible", r.Label, r.Values[0])
		}
	}
}

// TestLabKeysSeed checks that a Lab reused across seeds serves each
// seed its own run and AUV model: an AUM run at seed 7 after one at
// seed 42 must equal the same run on a fresh Lab.
func TestLabKeysSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short")
	}
	jbb := workload.SPECjbb()
	spec := RunSpec{Plat: platform.GenA(), Model: llm.Llama2_7B(), Scheme: "AUM", Scen: trace.Chatbot(), BE: &jbb}
	reused := NewLab()
	if _, err := reused.Run(spec, Options{Quick: true, Seed: 42}); err != nil {
		t.Fatal(err)
	}
	got, err := reused.Run(spec, Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewLab().Run(spec, Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 7 after seed 42 on one Lab: Eff %v, fresh Lab: Eff %v", got.Eff, want.Eff)
	}
}

func TestOptionsHorizons(t *testing.T) {
	quickH, quickReps, _ := Options{Quick: true}.horizons()
	fullH, fullReps, _ := Options{}.horizons()
	if quickH >= fullH || quickReps >= fullReps {
		t.Fatal("quick mode must be cheaper than full mode")
	}
}

// TestSharingExperimentsQuick exercises the simulation-backed sharing
// experiments at quick fidelity and checks their headline shapes.
func TestSharingExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	lab := NewLab()
	o := Options{Quick: true}

	t.Run("fig9", func(t *testing.T) {
		tbl, err := runFig9(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		// OLAP pressure sweep: AU slowdown grows with sibling count.
		lo, _ := tbl.Get("OLAP-k24", "AU-TPOT-x")
		hi, _ := tbl.Get("OLAP-k96", "AU-TPOT-x")
		if hi <= lo {
			t.Fatalf("SMT pressure did not grow AU slowdown: %v -> %v", lo, hi)
		}
		// Paper: OLAP at full pressure slows AU more than 2x.
		if hi < 1.5 {
			t.Fatalf("full-pressure OLAP slowdown only %.2fx", hi)
		}
		// Shared apps degrade versus running alone.
		rel, _ := tbl.Get("SPECjbb-k96", "shared-vs-alone")
		if rel <= 0 || rel >= 0.9 {
			t.Fatalf("shared-vs-alone = %v, want heavy degradation", rel)
		}
	})

	t.Run("fig10", func(t *testing.T) {
		tbl, err := runFig10(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		if len(tbl.Rows) != 6 {
			t.Fatalf("fig10 variants = %d", len(tbl.Rows))
		}
		for _, r := range tbl.Rows {
			if r.Values[0] < 0.7 || r.Values[0] > 1.3 {
				t.Fatalf("%s goodput ratio %v implausible", r.Label, r.Values[0])
			}
		}
	})

	t.Run("sharedau", func(t *testing.T) {
		tbl, err := runSharedAU(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		private, _ := tbl.Get("GenA", "96c")
		pooled, _ := tbl.Get("GenA-pooledAU", "96c")
		if pooled >= private {
			t.Fatal("pooled AU should cap prefill throughput")
		}
		// The pool factor caps matrix throughput at roughly the
		// issue-share of one unit per cluster.
		if r := pooled / private; r < 0.4 || r > 0.7 {
			t.Fatalf("pooling ratio %v outside the modelled 0.55 band", r)
		}
	})

	t.Run("cluster", func(t *testing.T) {
		tbl, err := runCluster(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		rrG, _ := tbl.Get("round-robin", "TPOT-guar")
		awG, _ := tbl.Get("auv-aware", "TPOT-guar")
		lqG, _ := tbl.Get("least-queued", "TPOT-guar")
		// The AUV-aware policy dominates queue-depth routing on the
		// heterogeneous fleet and at least matches round-robin.
		if awG < lqG {
			t.Fatalf("auv-aware (%v) below least-queued (%v)", awG, lqG)
		}
		if awG < rrG-0.05 {
			t.Fatalf("auv-aware (%v) well below round-robin (%v)", awG, rrG)
		}
	})

	t.Run("fleet", func(t *testing.T) {
		tbl, err := runFleet(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		rrG, _ := tbl.Get("round-robin", "goodtok/s")
		lqG, _ := tbl.Get("least-queued", "goodtok/s")
		awG, _ := tbl.Get("auv-aware", "goodtok/s")
		// The headline claim: capacity-aware routing wins fleet goodput
		// on the heterogeneous fleet.
		if awG < lqG || awG < rrG*0.98 {
			t.Fatalf("auv-aware goodput %v should beat least-queued %v and round-robin %v", awG, lqG, rrG)
		}
		horizon, _, _ := o.horizons()
		machS, _ := tbl.Get("auv+autoscale", "mach-s")
		if machS <= 0 || machS >= 3*horizon {
			t.Fatalf("autoscale machine-seconds %v should be under the always-on %v", machS, 3*horizon)
		}
		hand, _ := tbl.Get("disagg-pd", "handoffs")
		disG, _ := tbl.Get("disagg-pd", "goodtok/s")
		if hand <= 0 || disG <= 0 {
			t.Fatalf("disaggregated row moved no KV traffic (handoffs %v, goodput %v)", hand, disG)
		}
	})

	t.Run("auservice", func(t *testing.T) {
		tbl, err := runAUService(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		exG, _ := tbl.Get("exclusive", "guarantee")
		nvG, _ := tbl.Get("naive-half", "guarantee")
		pcG, _ := tbl.Get("profile-control", "guarantee")
		if exG < 0.9 {
			t.Fatalf("exclusive service guarantee %v", exG)
		}
		if nvG > 0.5 {
			t.Fatalf("naive half-split should saturate the service, got %v", nvG)
		}
		if pcG < exG-0.05 {
			t.Fatalf("profile-control guarantee %v too far below exclusive %v", pcG, exG)
		}
		exE, _ := tbl.Get("exclusive", "eff")
		pcE, _ := tbl.Get("profile-control", "eff")
		if pcE <= exE {
			t.Fatalf("profile-control efficiency %v should beat exclusive %v", pcE, exE)
		}
	})

	t.Run("online", func(t *testing.T) {
		tbl, err := runOnline(lab, o)
		if err != nil {
			t.Fatal(err)
		}
		refines, _ := tbl.Get("online-refine", "refines")
		if refines <= 0 {
			t.Fatal("online mode never refined the model")
		}
		off, _ := tbl.Get("offline-model", "refines")
		if off != 0 {
			t.Fatal("offline mode refined the model")
		}
	})
}

// TestChaosGracefulDegradation is the robustness acceptance check: under
// the canonical fault plan (co-runner phase flip + prefill-region core
// loss at mid-horizon), AUM with the SLO watchdog recovers to compliance
// with a finite recovery time, while the watchdog-disabled controller
// accumulates a strictly longer violation window. The same table is
// reproducible from the command line via
// `aumbench -run chaos -quick` (fixed default seed).
func TestChaosGracefulDegradation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment skipped in -short")
	}
	lab := NewLab()
	o := Options{Quick: true, Seed: 42}
	tbl, err := runChaos(lab, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("chaos rows = %d, want 4 schemes", len(tbl.Rows))
	}
	wdRec, _ := tbl.Get("AUM+wd", "recovered")
	wdRecS, _ := tbl.Get("AUM+wd", "recoveryS")
	wdViol, _ := tbl.Get("AUM+wd", "violS")
	if wdRec != 1 {
		t.Fatal("watchdog controller did not recover to SLO compliance")
	}
	if wdRecS < 0 {
		t.Fatalf("watchdog recovery time %v not finite", wdRecS)
	}
	noWdViol, _ := tbl.Get("AUM", "violS")
	if noWdViol <= wdViol {
		t.Fatalf("watchdog-disabled violation %vs not strictly longer than watchdog %vs", noWdViol, wdViol)
	}
	// The run is deterministic: re-running the experiment with the same
	// seed reproduces the violation accounting exactly.
	tbl2, err := runChaos(lab, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []string{"AUM+wd", "AUM", "RP-AU", "SMT-AU"} {
		for _, col := range []string{"violS", "recoveryS", "recovered"} {
			a, _ := tbl.Get(row, col)
			b, _ := tbl2.Get(row, col)
			if a != b {
				t.Fatalf("%s/%s diverged across same-seed runs: %v vs %v", row, col, a, b)
			}
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tbl := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b,c"}}
	tbl.AddRow("r,1", 1.5, 2)
	out := tbl.RenderCSV()
	want := "label,a,\"b,c\"\n\"r,1\",1.5,2\n"
	if out != want {
		t.Fatalf("csv = %q, want %q", out, want)
	}
}
