package main

import "testing"

func rep(total float64, pairs ...any) report {
	var r report
	r.TotalS = total
	for i := 0; i < len(pairs); i += 2 {
		r.Experiments = append(r.Experiments, struct {
			ID    string  `json:"id"`
			WallS float64 `json:"wall_s"`
		}{ID: pairs[i].(string), WallS: pairs[i+1].(float64)})
	}
	return r
}

func TestCompare(t *testing.T) {
	oldR := rep(3.0, "a", 1.0, "b", 1.0, "c", 1.0)
	newR := rep(2.6, "a", 1.2, "b", 0.5, "d", 0.9)
	rows, regressions := compare(oldR, newR, 0.10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1", regressions)
	}
	byID := map[string]row{}
	for _, r := range rows {
		byID[r.id] = r
	}
	if byID["a"].status != "REGRESSION" {
		t.Errorf("a: status %q, want REGRESSION", byID["a"].status)
	}
	if byID["b"].status != "faster" {
		t.Errorf("b: status %q, want faster", byID["b"].status)
	}
	if byID["c"].status != "removed" {
		t.Errorf("c: status %q, want removed", byID["c"].status)
	}
	if byID["d"].status != "new" {
		t.Errorf("d: status %q, want new", byID["d"].status)
	}
}

func TestCompareWithinThreshold(t *testing.T) {
	oldR := rep(1, "a", 1.0)
	newR := rep(1, "a", 1.05)
	rows, regressions := compare(oldR, newR, 0.10)
	if regressions != 0 {
		t.Fatalf("regressions = %d, want 0", regressions)
	}
	if rows[0].status != "" {
		t.Fatalf("status = %q, want unmarked", rows[0].status)
	}
}

func hot(r report, pairs ...any) report {
	for i := 0; i < len(pairs); i += 2 {
		r.HotPaths = append(r.HotPaths, struct {
			Name    string  `json:"name"`
			NsPerOp float64 `json:"ns_per_op"`
		}{Name: pairs[i].(string), NsPerOp: pairs[i+1].(float64)})
	}
	return r
}

func TestCompareHotPaths(t *testing.T) {
	oldR := hot(report{}, "machine_step", 400.0, "fleet_failover", 900.0, "gone", 100.0)
	newR := hot(report{}, "machine_step", 500.0, "fleet_failover", 700.0, "added", 50.0)
	rows, regressions := compareHotPaths(oldR, newR, 0.10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1", regressions)
	}
	byID := map[string]row{}
	for _, r := range rows {
		byID[r.id] = r
	}
	if byID["hot:machine_step"].status != "REGRESSION" {
		t.Errorf("machine_step: status %q, want REGRESSION", byID["hot:machine_step"].status)
	}
	if byID["hot:fleet_failover"].status != "faster" {
		t.Errorf("fleet_failover: status %q, want faster", byID["hot:fleet_failover"].status)
	}
	if byID["hot:gone"].status != "removed" {
		t.Errorf("gone: status %q, want removed", byID["hot:gone"].status)
	}
	if byID["hot:added"].status != "new" {
		t.Errorf("added: status %q, want new", byID["hot:added"].status)
	}
}

// Hot-path rows have no noise floor: sub-flagFloorS values still flag.
// An experiment wall clock that small would be unmarked.
func TestCompareHotPathsNoFloor(t *testing.T) {
	oldR := hot(report{}, "tiny", 0.01)
	newR := hot(report{}, "tiny", 0.02)
	_, regressions := compareHotPaths(oldR, newR, 0.10)
	if regressions != 1 {
		t.Fatalf("regressions = %d, want 1 (hot paths must not inherit the wall-clock floor)", regressions)
	}
	oldE := rep(0, "tiny", 0.01)
	newE := rep(0, "tiny", 0.02)
	rows, regressions := compare(oldE, newE, 0.10)
	if regressions != 0 || rows[0].status != "" {
		t.Fatalf("experiment under floor: regressions = %d, status = %q, want unmarked", regressions, rows[0].status)
	}
}

func TestHostLines(t *testing.T) {
	oldR := report{GoMaxProcs: 2, GoVersion: "go1.24.0"}
	newR := report{GoMaxProcs: 4, NumCPU: 4, GoVersion: "go1.24.1"}
	want := []string{
		"host                            old        new",
		"go_max_procs                      2          4",
		"num_cpu                           -          4",
		"go_version                 go1.24.0   go1.24.1",
	}
	got := hostLines(oldR, newR)
	if len(got) != len(want) {
		t.Fatalf("got %d lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, got[i], want[i])
		}
	}
}
