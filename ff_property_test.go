package aum

// Property test for the fast-forward contract (DESIGN.md §9):
// StepN(k) must be observably identical to k sequential Step calls —
// bit-for-bit, across randomized machine configurations, workload
// mixes, chunk sizes, and mid-run mutations that invalidate the replay
// capture.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/serve"
	"aum/internal/trace"
	"aum/internal/workload"
)

// ffCase is a deterministic machine specification derived from a seed,
// so the sequential and fast-forward machines are built identically.
type ffCase struct {
	plat     platform.Platform
	profiles []workload.Profile
	serving  bool // replace the last slot with prefill+decode workers
}

func newFFCase(r *rand.Rand) ffCase {
	plats := []platform.Platform{platform.GenA(), platform.GenB(), platform.GenC()}
	profs := []func() workload.Profile{
		workload.SPECjbb, workload.OLAP, workload.Compute,
		workload.Stressor, workload.MCF, workload.Ads,
	}
	c := ffCase{plat: plats[r.Intn(len(plats))]}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		c.profiles = append(c.profiles, profs[r.Intn(len(profs))]())
	}
	c.serving = r.Intn(2) == 0
	return c
}

// build instantiates the case: tasks get equal contiguous core strips.
func (c ffCase) build(t *testing.T, seed uint64) (*machine.Machine, []*workload.App) {
	t.Helper()
	m := machine.New(c.plat)
	slots := len(c.profiles)
	if c.serving {
		slots++
	}
	per := c.plat.Cores / slots
	var apps []*workload.App
	for i, p := range c.profiles {
		a := workload.New(p, seed+uint64(i))
		apps = append(apps, a)
		if _, err := m.AddTask(a, machine.Placement{
			CoreLo: i * per, CoreHi: i*per + per - 1, SMTSlot: 0, COS: i % 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if c.serving {
		eng := serve.NewEngine(serve.Config{Model: llm.Llama2_7B(), SLO: trace.Chatbot().SLO})
		lo := len(c.profiles) * per
		mid := lo + per/2
		if _, err := m.AddTask(eng.PrefillWorker(), machine.Placement{
			CoreLo: lo, CoreHi: mid - 1, SMTSlot: 0, COS: 0,
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.AddTask(eng.DecodeWorker(), machine.Placement{
			CoreLo: mid, CoreHi: c.plat.Cores - 1, SMTSlot: 0, COS: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m, apps
}

// floatBits appends the bit pattern of every float64 field of v,
// descending into nested structs (TaskStats.Breakdown), so comparisons
// tell −0 from +0 where float == would not.
func floatBits(dst []uint64, v reflect.Value) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(dst, math.Float64bits(v.Float()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			dst = floatBits(dst, v.Field(i))
		}
		return dst
	}
	panic(fmt.Sprintf("floatBits: unexpected %s field", v.Type()))
}

// TestStepNEquivalenceProperty runs randomized cases comparing a
// machine advanced by StepN in random chunk sizes against a twin
// advanced one Step at a time. Mid-run frequency-derate, phase and
// placement mutations exercise capture invalidation; every TaskStats accumulator and
// Breakdown field is compared by its bit pattern.
func TestStepNEquivalenceProperty(t *testing.T) {
	var seqBits, ffBits []uint64
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		c := newFFCase(r)
		seq, seqApps := c.build(t, uint64(seed))
		ff, ffApps := c.build(t, uint64(seed))

		for chunk := 0; chunk < 60; chunk++ {
			k := 1 + r.Intn(50)
			if r.Intn(8) == 0 && len(seqApps) > 0 {
				// Mutate both twins identically: the capture must
				// invalidate and re-form without observable effect.
				i := r.Intn(len(seqApps))
				switch r.Intn(3) {
				case 0:
					derate := 0.5 + 0.5*r.Float64()
					seq.SetFreqDerate(derate)
					ff.SetFreqDerate(derate)
				case 1:
					seqApps[i].FlipPhase()
					ffApps[i].FlipPhase()
				case 2:
					st, _ := seq.Placement(1)
					_ = seq.SetPlacement(1, st)
					ft, _ := ff.Placement(1)
					_ = ff.SetPlacement(1, ft)
				}
			}
			for j := 0; j < k; j++ {
				seq.Step()
			}
			ff.StepN(k)

			if math.Float64bits(seq.EnergyJ()) != math.Float64bits(ff.EnergyJ()) {
				t.Fatalf("seed %d chunk %d (k=%d): energy diverged: %v vs %v (ffsteps=%d)",
					seed, chunk, k, seq.EnergyJ(), ff.EnergyJ(), ff.FFSteps())
			}
			if math.Float64bits(seq.Now()) != math.Float64bits(ff.Now()) {
				t.Fatalf("seed %d chunk %d: clocks diverged: %v vs %v", seed, chunk, seq.Now(), ff.Now())
			}
			for id := machine.TaskID(1); ; id++ {
				ss, ok1 := seq.Stats(id)
				fs, ok2 := ff.Stats(id)
				if ok1 != ok2 {
					t.Fatalf("seed %d: task table diverged at id %d", seed, id)
				}
				if !ok1 {
					break
				}
				seqBits = floatBits(seqBits[:0], reflect.ValueOf(ss))
				ffBits = floatBits(ffBits[:0], reflect.ValueOf(fs))
				if !slices.Equal(seqBits, ffBits) {
					t.Fatalf("seed %d chunk %d (k=%d): task %d stats diverged (ffsteps=%d):\nseq: %+v\nff:  %+v",
						seed, chunk, k, id, ff.FFSteps(), ss, fs)
				}
			}
		}
		// A SPECjbb co-runner holds its burst between walk quanta, so a
		// case that runs one must replay some of its steps.
		if slices.ContainsFunc(c.profiles, func(p workload.Profile) bool { return p.BurstAmp > 0 }) && ff.FFSteps() == 0 {
			t.Fatalf("seed %d: a case with a bursty co-runner replayed no step", seed)
		}
	}
}
