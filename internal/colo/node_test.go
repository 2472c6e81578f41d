package colo

import (
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

// TestNodeStepToSplitProperty checks that the node stepper does not
// depend on how its span is split: stepping a node to one end tick in
// random pieces, with the same arrivals — half through its inbox, as a
// fleet routes them per barrier, half through the hook, as Run emits
// them — and the same manager cadence, must leave the engine stats,
// energy, every task's stats and the measurement snapshot bit-identical
// to one StepTo over the whole span. A fleet's catch-up settles an
// elided span in one call on this property.
func TestNodeStepToSplitProperty(t *testing.T) {
	const end, warm = 4000, 1013 // ticks; warm falls between manager ticks
	want := stepNode(t, []int64{end}, warm)
	// The first split steps every tick on its own, so every event fires
	// at its own tick whatever bound the due rule gave it.
	every := make([]int64, end)
	for i := range every {
		every[i] = int64(i + 1)
	}
	splits := [][]int64{every}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 6; trial++ {
		cuts := []int64{end}
		for k := r.Intn(64); k >= 0; k-- {
			cuts = append(cuts, 1+r.Int63n(end-1))
		}
		slices.Sort(cuts)
		splits = append(splits, slices.Compact(cuts))
	}
	for _, cuts := range splits {
		if got := stepNode(t, cuts, warm); !slices.Equal(got, want) {
			t.Fatalf("%d pieces, cut first at %v: differs from one StepTo(%d)", len(cuts), cuts[:min(len(cuts), 8)], end)
		}
	}
}

// derateMgr is sharedMgr with a decision that reads the engine: it
// derates the clock while requests queue.
type derateMgr struct{ sharedMgr }

func (derateMgr) Tick(e *Env, _ float64) error {
	f := 1.0
	if e.Engine.QueueLen() > 0 {
		f = 0.8
	}
	e.M.SetFreqDerate(f)
	return nil
}

// stepNode builds the test node, steps it through each cut in turn and
// returns its state as bit patterns.
func stepNode(t *testing.T, cuts []int64, warm int64) []uint64 {
	t.Helper()
	jbb := workload.SPECjbb()
	scen := trace.Chatbot()
	scen.RatePerS = 4
	n, err := NewNode(Config{Plat: platform.GenA(), Model: llm.Llama2_7B(), Scen: scen, BE: &jbb,
		Manager: derateMgr{}, WarmupS: machine.Time(warm)}, 9, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	routed := trace.NewGenerator(scen, 3).Emit(0, machine.Time(cuts[len(cuts)-1]))
	for _, r := range routed {
		r.ID += 1 << 20 // apart from the hook's IDs
	}
	src := trace.NewGenerator(scen, 4)
	hook := func(t int64) (int64, error) {
		for _, r := range src.Emit(machine.Time(t), machine.DT) {
			if err := n.Engine.Submit(r); err != nil {
				return 0, err
			}
		}
		return machine.TickOf(src.NextEventAt()) - 1, nil
	}
	for _, cut := range cuts {
		// Route what arrives by the piece's end, as a fleet barrier does.
		for len(routed) > 0 && routed[0].Arrival <= machine.Time(cut) {
			n.Inbox, routed = append(n.Inbox, routed[0]), routed[1:]
		}
		if err := n.StepTo(cut, hook); err != nil {
			t.Fatal(err)
		}
	}
	state := struct {
		Stats               serve.Stats
		EnergyJ             float64
		Prefill, Decode, BE machine.TaskStats
		Base                Snapshot
	}{Stats: *n.Engine.Stats(), EnergyJ: n.M.EnergyJ()}
	state.Prefill, _ = n.M.Stats(n.PrefillID)
	state.Decode, _ = n.M.Stats(n.DecodeID)
	state.BE, _ = n.M.Stats(n.BEID)
	if !n.Measured || state.Stats.PrefillRequests == 0 {
		t.Fatal("the node measured nothing; the property is vacuous")
	}
	state.Base = n.Base
	return bits(reflect.ValueOf(state), nil)
}

// bits flattens v's numbers in field order, floats as math.Float64bits,
// so two states are bit-identical iff their flattenings are equal.
func bits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		return append(out, math.Float64bits(v.Float()))
	case reflect.Int, reflect.Int64:
		return append(out, uint64(v.Int()))
	case reflect.Bool:
		if v.Bool() {
			return append(out, 1)
		}
		return append(out, 0)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = bits(v.Field(i), out)
		}
	case reflect.Slice:
		out = append(out, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			out = bits(v.Index(i), out)
		}
	default:
		panic("bits: unhandled kind " + v.Kind().String())
	}
	return out
}
