package reqtrace

import (
	"strings"
	"testing"
)

func TestTraceIDRoundTrip(t *testing.T) {
	cases := []struct{ class, id int }{
		{0, 0}, {0, 1}, {3, 41}, {7, 1 << 30},
		{0, -12}, {2, -(1 << 20)}, // negative IDs fold to distinct IDs too
	}
	seen := map[uint64]bool{}
	for _, c := range cases {
		tid := MakeTraceID(c.class, c.id)
		if tid == 0 {
			t.Fatalf("MakeTraceID(%d,%d) = 0; zero means untraced", c.class, c.id)
		}
		if seen[tid] {
			t.Fatalf("MakeTraceID(%d,%d) collided", c.class, c.id)
		}
		seen[tid] = true
		class, id := SplitTraceID(tid)
		if class != c.class || id != c.id {
			t.Fatalf("SplitTraceID(MakeTraceID(%d,%d)) = (%d,%d)", c.class, c.id, class, id)
		}
	}
	// Same ID in different classes must stay distinct.
	if MakeTraceID(0, 5) == MakeTraceID(1, 5) {
		t.Fatal("class does not separate trace IDs")
	}
}

// TestNilSafety drives every hook through a nil tracer and a tracer
// that never saw the request — both must be silent no-ops, which is
// what lets every call site gate on a single nil check. Shed is the
// exception on a live tracer: a shed request may never have been
// submitted, so Shed records it.
func TestNilSafety(t *testing.T) {
	for _, tr := range []*Tracer{nil, New(Config{})} {
		tid := MakeTraceID(0, 99)
		tr.PrefillStart(tid, 1, 0)
		tr.FirstToken(tid, 1, true, 0, 0, 0)
		tr.HandoffReady(tid, 1, 0)
		tr.Injected(tid, 1, 0)
		tr.Token(tid, 1, 0.1, true, 0.05, 0, 0)
		tr.Retire(tid, 1, 0)
		tr.Dropped(tid, 1, 0)
		tr.CrashLost(tid, 1, 0)
		tr.Redispatched(tid, 2, 0)
		tr.Failed(tid, 2)
		tr.Publish()
		if tr == nil {
			tr.Shed(tid, 2, "max-queue", 0)
			if rep := tr.Report(); rep.Sampled != 0 {
				t.Fatal("nil tracer reported samples")
			}
			continue
		}
		rep := tr.Report()
		if rep.InFlight != 0 || rep.Completed != 0 || rep.Sampled != 0 {
			t.Fatalf("hooks on an unknown request left state: %+v", rep)
		}
		tr.Shed(tid, 2, "max-queue", 0)
		if rep := tr.Report(); rep.Shed != 1 || rep.InFlight != 0 {
			t.Fatalf("shed of an unknown request: %+v", rep)
		}
	}
}

// TestLifecycleBlame walks one request through a full hand-built
// lifecycle — queue, prefill, decode, crash, backoff, retry — and
// checks the blame vector against the arithmetic.
func TestLifecycleBlame(t *testing.T) {
	tr := New(Config{})
	tid := MakeTraceID(1, 1)
	tr.Submitted(tid, 10.0, 0)
	tr.PrefillStart(tid, 10.5, 0)                // 0.5 queue
	tr.FirstToken(tid, 11.0, true, 0.5, 0.25, 0) // 0.25 membw, 0.125 throttle, 0.125 compute
	tr.CrashLost(tid, 12.0, 0)                   // roll back; 2.0 recompute
	tr.Redispatched(tid, 12.5, 1)                // 0.5 backoff
	tr.PrefillStart(tid, 13.0, 1)                // 0.5 queue
	tr.FirstToken(tid, 14.0, true, 0, 0, 1)
	tr.Token(tid, 14.5, 0.5, true, 0.25, 0, 0) // 0.25 sched, 0.25 compute
	tr.Retire(tid, 14.5, 1)

	traces := tr.Recent(0)
	if len(traces) != 1 {
		t.Fatalf("got %d traces", len(traces))
	}
	rt := traces[0]
	if rt.Outcome != "done" || rt.Attempts != 2 || rt.Tokens != 1 {
		t.Fatalf("trace = %+v", rt)
	}
	wantH := map[string]float64{"recompute": 2.0, "backoff": 0.5, "queue": 0.5, "compute": 1.0}
	for k, v := range wantH {
		if got := rt.BlameTTFT[k]; got != v {
			t.Errorf("BlameTTFT[%s] = %v, want %v", k, got, v)
		}
	}
	if rt.BlameTTFT["membw"] != 0 {
		t.Error("membw from the crashed attempt must be rolled back")
	}
	var sumH float64
	for _, v := range rt.BlameTTFT {
		sumH += v
	}
	if sumH != rt.TTFTS {
		t.Errorf("TTFT blame sums to %v, measured %v", sumH, rt.TTFTS)
	}
	if rt.BlameTPOT["sched"] != 0.25 || rt.BlameTPOT["compute"] != 0.25 {
		t.Errorf("BlameTPOT = %v", rt.BlameTPOT)
	}
}

func TestValidateBlameSeries(t *testing.T) {
	ok := `# TYPE aum_blame_seconds gauge
aum_blame_seconds{cat="queue",side="ttft"} 1.5
aum_blame_seconds{cat="recompute",side="tpot"} 0
aum_slo_burn_rate{slo="ttft"} 0.25
aum_reqtrace_sampled 10
other_metric 1
`
	if err := ValidateBlameSeries(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if err := ValidateBlameSeries(strings.NewReader("no_blame_here 1\n")); err != nil {
		t.Fatalf("exposition without blame series rejected: %v", err)
	}
	bad := []string{
		`aum_blame_seconds{cat="gremlins",side="ttft"} 1`,   // unknown category
		`aum_blame_seconds{cat="queue",side="sideways"} 1`,  // unknown side
		`aum_blame_seconds{cat="queue"} 1`,                  // missing side
		`aum_blame_milliseconds{cat="queue",side="ttft"} 1`, // unknown blame family
		`aum_slo_burn_rate{slo="nope"} 1`,                   // unknown SLO
	}
	for _, line := range bad {
		if err := ValidateBlameSeries(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("accepted invalid series %q", line)
		}
	}
}
