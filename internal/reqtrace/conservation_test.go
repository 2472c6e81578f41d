package reqtrace_test

import (
	"math"
	"testing"

	"aum/internal/chaos"
	"aum/internal/cluster"
	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/trace"
)

// conservation tolerance, seconds: the blame components are chains of
// the same float subtractions the simulation performs, so the sums are
// exact up to accumulation rounding.
const tolS = 1e-6

// checkConservation asserts the blame-vector conservation property on
// every completed trace: the TTFT-side components sum to the measured
// TTFT and the decode-side components to the measured decode time.
func checkConservation(t *testing.T, traces []reqtrace.RequestTrace) (done, retried int) {
	t.Helper()
	for _, tr := range traces {
		if tr.Outcome != "done" {
			continue
		}
		done++
		if tr.Attempts > 1 {
			retried++
		}
		var sumH, sumL float64
		for _, v := range tr.BlameTTFT {
			sumH += v
		}
		for _, v := range tr.BlameTPOT {
			sumL += v
		}
		if math.Abs(sumH-tr.TTFTS) > tolS {
			t.Errorf("trace %d (class %d req %d, %d attempts): TTFT blame sums to %.9fs, measured %.9fs",
				tr.TraceID, tr.Class, tr.ReqID, tr.Attempts, sumH, tr.TTFTS)
		}
		decode := tr.E2ES - tr.TTFTS
		if math.Abs(sumL-decode) > tolS {
			t.Errorf("trace %d (class %d req %d, %d tokens): decode blame sums to %.9fs, measured %.9fs",
				tr.TraceID, tr.Class, tr.ReqID, tr.Tokens, sumL, decode)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("trace %d completed with no spans", tr.TraceID)
		}
	}
	return done, retried
}

// TestConservationColo pins the property on a single-machine run: every
// request is sampled and every completed blame vector must conserve.
func TestConservationColo(t *testing.T) {
	rt := reqtrace.New(reqtrace.Config{KeepRecent: 1 << 16})
	_, err := colo.Run(colo.Config{
		Plat: platform.GenA(), Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
		Manager: manager.AllAU{}, HorizonS: 40, Seed: 3, ReqTrace: rt,
	})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := checkConservation(t, rt.Recent(0))
	if done == 0 {
		t.Fatal("no completed traces recorded")
	}
}

// TestConservationFleetFaults pins the property across failover: a
// crash-storm fleet where harvested requests are rolled back to their
// attempt snapshots, charged to recompute, and redispatched after
// backoff. Conservation must survive multi-attempt, multi-node traces,
// and the chaos must visibly shift blame mass into the retry
// categories.
func TestConservationFleetFaults(t *testing.T) {
	rt := reqtrace.New(reqtrace.Config{KeepRecent: 1 << 16})
	fleet := []cluster.MachineSpec{
		{Plat: platform.GenA(), Mgr: manager.AllAU{}},
		{Plat: platform.GenA(), Mgr: manager.AllAU{}},
		{Plat: platform.GenA(), Mgr: manager.AllAU{}},
	}
	storm := chaos.CrashStorm(3, 4, 72, 3, 7)
	cfg := cluster.Config{
		Machines: fleet, Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
		Policy: cluster.LeastQueued, HorizonS: 72, Seed: 7, RatePerS: 1.0,
		Faults:   &storm,
		ReqTrace: rt,
	}
	if _, err := cluster.Run(cfg); err != nil {
		t.Fatal(err)
	}
	done, retried := checkConservation(t, rt.Recent(0))
	if done == 0 {
		t.Fatal("no completed traces recorded")
	}
	if retried == 0 {
		t.Fatal("crash storm produced no completed retried traces; the snapshot/rollback path went untested")
	}
	rep := rt.Report()
	if rep.Share("recompute")+rep.Share("backoff") <= 0 {
		t.Fatal("crash storm left no blame mass in the retry categories")
	}
}

// TestConservationDisagg pins the property on the disaggregated path,
// where the KV handoff crosses the link and the kvlink category picks
// up the serialization wait.
func TestConservationDisagg(t *testing.T) {
	rt := reqtrace.New(reqtrace.Config{KeepRecent: 1 << 16})
	cfg := cluster.Config{
		Machines: []cluster.MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: cluster.RolePrefill},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}, Role: cluster.RoleDecode},
		},
		Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
		Policy: cluster.RoundRobin, HorizonS: 30, Seed: 9, RatePerS: 1.5,
		ReqTrace: rt,
	}
	if _, err := cluster.Run(cfg); err != nil {
		t.Fatal(err)
	}
	traces := rt.Recent(0)
	done, _ := checkConservation(t, traces)
	if done == 0 {
		t.Fatal("no completed traces recorded")
	}
	kv := 0.0
	nodes := map[int]bool{}
	for _, tr := range traces {
		kv += tr.BlameTPOT["kvlink"]
		for _, s := range tr.Spans {
			nodes[s.Node] = true
		}
	}
	if kv <= 0 {
		t.Fatal("disaggregated run charged no kvlink blame")
	}
	if len(nodes) < 2 {
		t.Fatal("disaggregated traces never changed node; the cross-machine span path went untested")
	}
}
