package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("x").Set(1)
	r.Histogram("x", []float64{1}).Observe(1)
	r.Emit(0, "c", "n")
	r.Child("s").Counter("y").Add(2)
	if got := r.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
	var tr *Trace
	tr.Span("a", "b", 1, 1, 0, 1, nil)
	tr.Begin("a", "b", 1, 1, 0)
	tr.End(1, 1, 0)
	tr.CounterSample("a", 1, 0, nil)
	tr.SetProcessName(1, "x")
	if tr.Len() != 0 {
		t.Fatal("nil trace not empty")
	}
	if err := tr.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("requests_total") != c {
		t.Fatal("counter handle not stable")
	}
	g := r.Gauge("watts")
	g.Set(270.5)
	if g.Value() != 270.5 {
		t.Fatalf("gauge = %v", g.Value())
	}
}

// TestHistogramBucketEdges pins the `le` semantics: a value exactly on
// a bucket bound belongs to that bucket, values above the last bound
// land in +Inf.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0, 0.1, 0.100001, 0.5, 0.9, 1, 1.0001, 50} {
		h.Observe(v)
	}
	snap, ok := r.Snapshot().HistogramSnapFor("lat_seconds")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// Buckets: le=0.1 {0, 0.1}; le=0.5 {0.100001, 0.5}; le=1 {0.9, 1};
	// +Inf {1.0001, 50}.
	want := []uint64{2, 2, 2, 2}
	if !reflect.DeepEqual(snap.Counts, want) {
		t.Fatalf("bucket counts = %v, want %v", snap.Counts, want)
	}
	if snap.Count != 8 {
		t.Fatalf("count = %d, want 8", snap.Count)
	}
	wantSum := 0.0 + 0.1 + 0.100001 + 0.5 + 0.9 + 1 + 1.0001 + 50
	if math.Abs(snap.Sum-wantSum) > 1e-12 {
		t.Fatalf("sum = %v, want %v", snap.Sum, wantSum)
	}
	// Unsorted bounds are sorted at creation.
	h2 := NewRegistry().Histogram("x", []float64{3, 1, 2})
	if !reflect.DeepEqual(h2.Bounds(), []float64{1, 2, 3}) {
		t.Fatalf("bounds not sorted: %v", h2.Bounds())
	}
	// Re-requesting an existing histogram keeps the original bounds.
	h3 := r.Histogram("lat_seconds", []float64{99})
	if h3 != h {
		t.Fatal("histogram handle not stable")
	}
}

// TestSnapshotIsolation: mutations after Snapshot must not leak into
// the snapshot.
func TestSnapshotIsolation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2})
	c.Add(3)
	g.Set(1.5)
	h.Observe(0.5)
	r.Emit(1, "cat", "before", F("k", "v"))

	snap := r.Snapshot()

	c.Add(100)
	g.Set(-7)
	h.Observe(10)
	r.Emit(2, "cat", "after")

	if v, _ := snap.CounterValue("c"); v != 3 {
		t.Fatalf("snapshot counter mutated: %d", v)
	}
	if v, _ := snap.GaugeValue("g"); v != 1.5 {
		t.Fatalf("snapshot gauge mutated: %v", v)
	}
	hs, _ := snap.HistogramSnapFor("h")
	if hs.Count != 1 || hs.Counts[2] != 0 {
		t.Fatalf("snapshot histogram mutated: %+v", hs)
	}
	if len(snap.Events) != 1 || snap.Events[0].Name != "before" {
		t.Fatalf("snapshot events mutated: %+v", snap.Events)
	}
}

// TestRingWraparound pins overflow semantics: a full ring overwrites
// oldest-first, Seq keeps counting, Dropped counts overwrites.
func TestRingWraparound(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.Emit(float64(i), "c", "e", Fi("i", i))
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("len = %d, want 4", len(evs))
	}
	for k, ev := range evs {
		if want := uint64(6 + k); ev.Seq != want {
			t.Fatalf("event %d: seq = %d, want %d", k, ev.Seq, want)
		}
		if ev.Now != float64(6+k) {
			t.Fatalf("event %d out of order: now=%v", k, ev.Now)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	// Exactly-full ring: nothing dropped, order preserved.
	r2 := NewRing(3)
	for i := 0; i < 3; i++ {
		r2.Emit(float64(i), "c", "e")
	}
	if r2.Dropped() != 0 || len(r2.Events()) != 3 || r2.Events()[0].Seq != 0 {
		t.Fatal("exactly-full ring misbehaved")
	}
}

func TestChildScopes(t *testing.T) {
	r := NewRegistry()
	r.Counter("work_total").Add(1)
	a := r.Child("s0")
	b := r.Child("s1")
	a.Counter("work_total").Add(10)
	b.Counter("work_total").Add(20)
	b.Child("inner").Counter("work_total").Add(5)
	if r.Child("s0") != a {
		t.Fatal("child not idempotent")
	}

	snap := r.Snapshot()
	cases := map[string]uint64{
		"work_total":                   1,
		`work_total{scope="s0"}`:       10,
		`work_total{scope="s1"}`:       20,
		`work_total{scope="s1/inner"}`: 5,
	}
	for name, want := range cases {
		if v, ok := snap.CounterValue(name); !ok || v != want {
			t.Fatalf("%s = %d (ok=%v), want %d", name, v, ok, want)
		}
	}
	// Labelled names merge with the scope label.
	a.Gauge(`g{x="y"}`).Set(1)
	if _, ok := r.Snapshot().GaugeValue(`g{scope="s0",x="y"}`); !ok {
		t.Fatal("scope label not merged into existing labels")
	}
	// Child events carry the scope in the snapshot.
	a.Emit(3, "cat", "ev")
	found := false
	for _, ev := range r.Snapshot().Events {
		if ev.Scope == "s0" && ev.Name == "ev" {
			found = true
		}
	}
	if !found {
		t.Fatal("child event missing from parent snapshot")
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", []float64{0.5})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i%2) * 0.9)
				r.Gauge("g").Set(float64(i))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if math.Abs(h.Sum()-8000.0/2*0.9) > 1e-9 {
		t.Fatalf("histogram sum = %v", h.Sum())
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("aum_requests_total").Add(7)
	r.Counter(`aum_faults_total{kind="burst"}`).Add(2)
	r.Gauge("aum_power_package_watts").Set(271.25)
	h := r.Histogram("aum_ttft_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.Child("s0").Counter("aum_requests_total").Add(3)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aum_requests_total counter",
		"aum_requests_total 7",
		`aum_requests_total{scope="s0"} 3`,
		`aum_faults_total{kind="burst"} 2`,
		"aum_power_package_watts 271.25",
		"# TYPE aum_ttft_seconds histogram",
		`aum_ttft_seconds_bucket{le="0.1"} 1`,
		`aum_ttft_seconds_bucket{le="1"} 2`,
		`aum_ttft_seconds_bucket{le="+Inf"} 3`,
		"aum_ttft_seconds_sum 2.55",
		"aum_ttft_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := ValidatePrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition does not validate: %v\n%s", err, out)
	}
}

func TestValidatePrometheusRejectsGarbage(t *testing.T) {
	cases := []string{
		"not a metric line at all!",
		"# TYPE x counter\nx{bad-label=\"v\"} 1",
		"orphan_sample 1",        // no TYPE
		"# TYPE x counter\nx 1e", // bad value
		"",                       // no samples
	}
	for _, in := range cases {
		if err := ValidatePrometheus(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted invalid exposition %q", in)
		}
	}
}

func TestChromeTraceJSON(t *testing.T) {
	tr := NewTrace()
	tr.SetProcessName(PIDServe, "serve")
	tr.Span("req 1", "request", PIDServe, 1, 0.5, 0.8, map[string]float64{"tokens": 42})
	tr.CounterSample("machine", PIDMachine, 0.6, map[string]float64{"watts": 180})
	tr.Begin("div:balanced", "controller", PIDController, 0, 0.1)
	tr.End(PIDController, 0, 0.9)
	tr.CounterSample("batch", PIDServe, 0.7, map[string]float64{"decode": 16})
	if tr.Len() != 5 {
		t.Fatalf("len = %d, want 5", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 6 { // 5 events + 1 metadata
		t.Fatalf("traceEvents = %d, want 6", len(f.TraceEvents))
	}
	if f.TraceEvents[0]["ph"] != "M" {
		t.Fatal("metadata not first")
	}
	// Events are sorted by ts; the span at 0.5s is in microseconds.
	var sawSpan bool
	lastTs := -1.0
	for _, ev := range f.TraceEvents[1:] {
		ts := ev["ts"].(float64)
		if ts < lastTs {
			t.Fatal("events not sorted by ts")
		}
		lastTs = ts
		if ev["ph"] == "X" {
			sawSpan = true
			if ts != 0.5*1e6 || math.Abs(ev["dur"].(float64)-0.3*1e6) > 1e-6 {
				t.Fatalf("span timing wrong: ts=%v dur=%v", ts, ev["dur"])
			}
		}
	}
	if !sawSpan {
		t.Fatal("span missing")
	}
}
