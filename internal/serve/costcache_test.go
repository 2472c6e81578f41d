package serve

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/reqtrace"
)

// workerRunDigest is workerRun's digest as computed, caches on, by the
// code before the cost cache handed out pointers into its slots and
// Step clamped a copy of the cost. The cache must not change a bit.
const workerRunDigest = 0x84d25ccba6f07cf3

// hashBits folds every float64 (by its bits) and integer of v into h.
func hashBits(h interface{ Write([]byte) (int, error) }, v reflect.Value) {
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			hashBits(h, v.Field(i))
		}
	default:
		panic("hashBits: unhandled kind " + v.Kind().String())
	}
}

// workerRun drives an engine's two workers through six distinct
// environments, so the four-slot cost cache wraps, with every request
// traced so each completed iteration runs stallFractions. It returns a
// digest of every Demand and Usage bit, each step's lastCostS, and the
// tracer's finished request traces. With fresh set, both workers' caches
// are emptied before every call, so every cost is computed afresh.
func workerRun(t *testing.T, fresh bool) uint64 {
	p := platform.GenA()
	envs := []machine.Env{
		{Plat: &p, Cores: 24, GHz: 2.5, ComputeShare: 1, LLCMB: 40, L2MB: 48, BWGBs: 120},
		{Plat: &p, Cores: 24, GHz: 3.1, ComputeShare: 1, LLCMB: 40, L2MB: 48, BWGBs: 120},
		{Plat: &p, Cores: 24, GHz: 2.5, ComputeShare: 0.8, LLCMB: 40, L2MB: 48, BWGBs: 60},
		{Plat: &p, Cores: 32, GHz: 2.4, ComputeShare: 1, LLCMB: 12, L2MB: 64, BWGBs: 200},
		{Plat: &p, Cores: 32, GHz: 2.8, ComputeShare: 0.9, LLCMB: 97.5, L2MB: 64, BWGBs: 30},
		{Plat: &p, Cores: 16, GHz: 3.2, ComputeShare: 1, LLCMB: 6, L2MB: 32, BWGBs: 90},
	}
	rt := reqtrace.New(reqtrace.Config{KeepRecent: 256})
	e := NewEngine(Config{Model: testConfig().Model, SLO: testConfig().SLO, ReqTrace: rt})
	id := 0
	submit := func(now float64, n int) {
		for k := 0; k < n; k++ {
			id++
			r := &Request{ID: id, Arrival: now, PromptLen: 64 + 32*(id%5), OutputLen: 3 + id%6,
				TraceID: reqtrace.MakeTraceID(0, id)}
			if err := e.Submit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	h := fnv.New64a()
	const dt = 1e-3
	for step := 0; step < 3000; step++ {
		now := float64(step) * dt
		if step%500 == 0 {
			submit(now, 8)
		}
		// The demand and execution environments differ, as in a machine
		// step, and change on different cadences.
		dEnv, sEnv := envs[(step/3)%len(envs)], envs[(step/2+step/7)%len(envs)]
		for _, w := range []*Worker{e.PrefillWorker(), e.DecodeWorker()} {
			if fresh {
				w.costs, w.demands = costCache{}, demandCache{}
			}
			hashBits(h, reflect.ValueOf(w.Demand(dEnv)))
			if fresh {
				w.costs, w.demands = costCache{}, demandCache{}
			}
			hashBits(h, reflect.ValueOf(w.Step(sEnv, now, dt)))
			hashBits(h, reflect.ValueOf(w.lastCostS))
		}
	}
	rt.Publish()
	recent := rt.Recent(256)
	if len(recent) == 0 {
		t.Fatal("no request finished: the traced completion path never ran")
	}
	stalled := false
	for _, r := range recent {
		if r.BlameTTFT["membw"] > 0 || r.BlameTPOT["membw"] > 0 {
			stalled = true
		}
	}
	if !stalled {
		t.Fatal("no traced iteration charged a bandwidth stall: stallFractions never ran")
	}
	js, err := json.Marshal(recent)
	if err != nil {
		t.Fatal(err)
	}
	h.Write(js)
	return h.Sum64()
}

// TestWorkerCostCacheBitIdentity runs the serving workers with their
// cost and demand caches against the same run with the caches emptied
// before every call, and against the digest the code produced before
// the caches handed out pointers. All three must agree bit for bit.
func TestWorkerCostCacheBitIdentity(t *testing.T) {
	cached, fresh := workerRun(t, false), workerRun(t, true)
	if cached != fresh {
		t.Fatalf("cached run digest %#x != fresh run digest %#x", cached, fresh)
	}
	if cached != workerRunDigest {
		t.Fatalf("digest %#x, want %#x as before the cache returned pointers", cached, uint64(workerRunDigest))
	}
}
