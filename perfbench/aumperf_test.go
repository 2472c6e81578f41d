package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestFacadeOnly keeps the benchmark measuring what users get: no file
// may reach into aum/internal/... or flip a mode switch.
func TestFacadeOnly(t *testing.T) {
	forbidden := []string{
		`"aum/` + `internal/`,
		"Event" + "Driven",
		"Arche" + "types",
		"SetFast" + "Forward",
		"SetRequestTracing" + "Forced",
	}
	files, err := filepath.Glob("*")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Ext(f) != ".go" && f != "go.mod" && f != "run.sh" {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range forbidden {
			if strings.Contains(string(src), bad) {
				t.Errorf("%s names %s", f, bad)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON ties the metric catalogs, the
// workload list and layers.json to the repository's BENCHMARK.json.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &bench)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var benchNames []string
	for _, w := range bench.Workloads {
		benchNames = append(benchNames, w.Name)
	}
	if !reflect.DeepEqual(names, benchNames) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, benchNames)
	}
	if !reflect.DeepEqual(endToEnd, bench.EndToEnd) {
		t.Errorf("end_to_end catalog differs from BENCHMARK.json:\n%v\n%v", endToEnd, bench.EndToEnd)
	}
	if !reflect.DeepEqual(perLayerDefs(), bench.PerLayer) {
		t.Errorf("per_layer catalog differs from BENCHMARK.json")
	}

	var layers struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer map[string]json.RawMessage   `json:"per_layer"`
	}
	readJSON(t, "layers.json", &layers)
	for _, d := range endToEnd {
		for _, w := range names {
			if layers.EndToEnd[d.Name][w] == "" {
				t.Errorf("layers.json does not define %s on %s", d.Name, w)
			}
		}
	}
	if len(layers.PerLayer) != len(bench.PerLayer) {
		t.Errorf("layers.json documents %d per-layer metrics, BENCHMARK.json lists %d",
			len(layers.PerLayer), len(bench.PerLayer))
	}
	for _, d := range bench.PerLayer {
		if layers.PerLayer[d.Name] == nil {
			t.Errorf("layers.json does not document %s", d.Name)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func TestPercentileWithCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p, ok := percentileWithCount(xs, 99, 10)
	if !ok || p.Samples != 1000 || p.Beyond != 10 {
		t.Fatalf("p99 of 1000 = %+v ok=%v, want 10 samples beyond", p, ok)
	}
	if math.Abs(p.Value-990.01) > 1e-9 {
		t.Fatalf("p99 = %v, want 990.01", p.Value)
	}
	if p, ok := percentileWithCount(xs[:500], 99, 10); ok || p.Beyond != 5 {
		t.Fatalf("p99 of 500 = %+v ok=%v, want a thin tail of 5", p, ok)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestPoissonScheduleReproduces(t *testing.T) {
	a := poissonSchedule(7, 200, 10, 32, 1024)
	b := poissonSchedule(7, 200, 10, 32, 1024)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(8, 200, 10, 32, 1024)) {
		t.Fatal("different seeds gave the same schedule")
	}
	// 2000 expected arrivals: a 5-sigma band is about +-224.
	if n := len(a); n < 1776 || n > 2224 {
		t.Fatalf("%d arrivals in 10 s at 200/s", n)
	}
	last := 0.0
	for _, x := range a {
		if x.DueS < last || x.DueS >= 10 || x.PromptTokens < 32 || x.PromptTokens > 1024 {
			t.Fatalf("bad arrival %+v after %v", x, last)
		}
		last = x.DueS
	}
}

func TestLatenessFromDueInstant(t *testing.T) {
	due := time.Unix(100, 0)
	if got := latenessMs(due, due.Add(3*time.Millisecond)); got != 3 {
		t.Fatalf("lateness = %v ms, want 3", got)
	}
	// First token 15 ms after the due instant, 1 simulated s of TTFT at
	// warp 100 = 10 ms emulated: 5 ms overhead, counting any generator
	// lateness against the system.
	if got := ttftOverheadMs(due, due.Add(15*time.Millisecond), 1, 100); math.Abs(got-5) > 1e-9 {
		t.Fatalf("TTFT overhead = %v ms, want 5", got)
	}
}

func TestLeastStolenKeepsCalmWindows(t *testing.T) {
	ss := []streamSample{
		{overheadMs: 1, dueS: 0.5},
		{overheadMs: 9, dueS: 1.5}, // the stolen window
		{overheadMs: 2, dueS: 2.5},
		{overheadMs: 3, dueS: 3.2}, // past the last window: counted in it
	}
	if got := leastStolen(ss, []float64{0, 0.2, 0.01}); !slices.Equal(got, []float64{1, 2, 3}) {
		t.Fatalf("leastStolen = %v, want [1 2 3]", got)
	}
	if got := leastStolen(ss, []float64{0, 0, 0}); len(got) != len(ss) {
		t.Fatalf("no steal kept %d of %d streams", len(got), len(ss))
	}
	if got := leastStolen(ss, nil); len(got) != len(ss) {
		t.Fatalf("no windows kept %d of %d streams", len(got), len(ss))
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{ID: 1, Name: "parent", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Start: at(20), End: at(40)},  // overlaps 2: counted once
		{ID: 4, Parent: 1, Start: at(90), End: at(120)}, // clipped to the parent
		{ID: 5, Parent: 3, Start: at(25), End: at(35)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 60 * time.Millisecond, 2: 20 * time.Millisecond, 3: 10 * time.Millisecond,
		4: 30 * time.Millisecond, 5: 10 * time.Millisecond,
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
}

func TestCheckStream(t *testing.T) {
	ev := func(data string) sseEvent { return sseEvent{data: data, flushed: time.Unix(1, 0)} }
	role := ev(`{"choices":[{"delta":{"role":"assistant"},"finish_reason":null}]}`)
	tok := ev(`{"choices":[{"delta":{"content":"the"},"finish_reason":null}]}`)
	fin := ev(`{"choices":[{"delta":{},"finish_reason":"stop"}]}`)
	done := ev("[DONE]")
	if _, _, err := checkStream([]sseEvent{role, tok, tok, fin, done}, 32); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for name, bad := range map[string][]sseEvent{
		"no role":        {tok, fin, done},
		"no content":     {role, fin, done},
		"no finish":      {role, tok, done},
		"no done":        {role, tok, fin},
		"data after end": {role, tok, fin, done, tok},
		"too long":       {role, tok, tok, tok, fin, done},
	} {
		if _, _, err := checkStream(bad, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTypicalSessionWallDropsStalls(t *testing.T) {
	s := func(steps ...float64) fleetSession {
		return fleetSession{steps: steps, finish: time.Millisecond}
	}
	// A 50 ms host stall hits one step of one session; the typical
	// session is 1+2+3 ms of steps plus 1 ms of Finish.
	got := typicalSessionWall([]fleetSession{s(1, 2, 3), s(1, 52, 3), s(1, 2, 3)})
	if math.Abs(got-0.007) > 1e-12 {
		t.Fatalf("typical session wall = %v s, want 0.007", got)
	}
}

func TestMediansAcrossRaggedRepetitions(t *testing.T) {
	// The second repetition stopped after one step: the second step's
	// median rests on the other two.
	got := medians([][]float64{{1, 10, 7}, {3}, {2, 30, 9}})
	if want := []float64{2, 20, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("medians = %v, want %v", got, want)
	}
	if s := sum(got); s != 30 {
		t.Fatalf("sum = %v, want 30", s)
	}
}

func TestSameShape(t *testing.T) {
	tbl := `{"ID":"t","Title":"T","Columns":["a","b"],"Rows":[{"Label":"x","Values":[1,2]}]}`
	if err := sameShape([]byte(tbl), []byte(strings.Replace(tbl, "[1,2]", "[3,4]", 1))); err != nil {
		t.Fatalf("values alone must not change the shape: %v", err)
	}
	for _, bad := range []string{
		strings.Replace(tbl, `"x"`, `"y"`, 1),
		strings.Replace(tbl, "[1,2]", "[1]", 1),
		strings.Replace(tbl, `["a","b"]`, `["a"]`, 1),
	} {
		if sameShape([]byte(bad), []byte(tbl)) == nil {
			t.Errorf("shape change not caught: %s", bad)
		}
	}
}
