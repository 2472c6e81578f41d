package machine

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"aum/internal/cache"
	"aum/internal/platform"
	"aum/internal/power"
	"aum/internal/telemetry"
	"aum/internal/topdown"
)

// envApp is a workload whose demand and usage read every Env field, so
// any stale layout value shows up in the task's statistics. Its demand
// swings by ±amp from step to step; with amp 0 it is a pure function of
// its environment.
type envApp struct {
	class      power.Class
	util, bwGB float64
	amp        float64
	k          int
}

func (a *envApp) Name() string { return "env" }

func (a *envApp) swing() float64 { return 1 + a.amp*math.Sin(float64(a.k)) }

func (a *envApp) Demand(env Env) Demand {
	w := a.swing()
	return Demand{
		Class: a.class,
		Util:  a.util * w,
		BWGBs: a.bwGB * w * float64(env.Cores) / 32 * (1 + env.LLCMB/100) * (1 + env.L2MB/100) * env.BWGBs / 200 * env.GHz * env.ComputeShare,
	}
}

func (a *envApp) Step(env Env, now float64) Usage {
	w := a.swing()
	a.k++
	return Usage{
		Work:      float64(env.Cores) * env.GHz * env.ComputeShare * DT,
		Flops:     env.LLCMB * DT,
		AMXFlops:  env.L2MB * DT,
		AVXFlops:  env.LinkUtil * DT,
		DRAMBytes: env.BWGBs * 1e9 * DT,
		Util:      a.util * w,
		Breakdown: topdown.Compose(0.3, 0.02, 0.05, 0.5, 0.5, [4]float64{1, 1, 1, 1}, env.LinkUtil),
	}
}

// quietApp is an envApp that certifies quiescence, so the machine may
// replay its steps from the capture.
type quietApp struct{ envApp }

func (a *quietApp) CanQuiesce() bool { return a.amp == 0 }
func (a *quietApp) AdvanceQuiesced() { a.k++ }

// layoutTwin builds the machine the layout test mutates: four tasks
// over three classes of service, one of them an SMT sibling spanning
// two primaries, with demands that oversubscribe the memory link.
func layoutTwin(t *testing.T) (*Machine, []TaskID) {
	t.Helper()
	m := New(platform.GenA())
	var ids []TaskID
	for _, tc := range []struct {
		wl Workload
		p  Placement
	}{
		{&envApp{class: power.Scalar, util: 0.9, bwGB: 120, amp: 0.3}, Placement{CoreLo: 0, CoreHi: 31, COS: 0}},
		{&quietApp{envApp{class: power.AMXHeavy, util: 0.8, bwGB: 90}}, Placement{CoreLo: 32, CoreHi: 63, COS: 1}},
		{&envApp{class: power.AVXHeavy, util: 0.7, bwGB: 150, amp: 0.5}, Placement{CoreLo: 64, CoreHi: 95, COS: 1}},
		{&envApp{class: power.Scalar, util: 0.6, bwGB: 60, amp: 0.2}, Placement{CoreLo: 16, CoreHi: 47, SMTSlot: 1, COS: 2}},
	} {
		id, err := m.AddTask(tc.wl, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := m.SetCOS(1, COSConfig{Ways: cache.Mask{Lo: 0, Hi: 5}, MBAFrac: 0.6}); err != nil {
		t.Fatal(err)
	}
	return m, ids
}

// machineBits is every accumulated float of m — each task's TaskStats
// fields, package energy, last watts and last link utilization — as bit
// patterns.
func machineBits(m *Machine) []uint64 {
	var bits []uint64
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			bits = append(bits, math.Float64bits(v.Float()))
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		default:
			panic(fmt.Sprintf("machineBits: unexpected %s field", v.Type()))
		}
	}
	for _, tk := range m.tasks {
		walk(reflect.ValueOf(tk.stats))
	}
	return append(bits, math.Float64bits(m.EnergyJ()), math.Float64bits(m.LastWatts()), math.Float64bits(m.LastLinkUtil()))
}

// TestStepLayoutTracksMutations checks that every machine-API mutation
// drops the step layout. Each case drives twin machines through the same
// history; one twin invalidates before every step, so it rebuilds the
// layout each time, and the other keeps the layout between mutations.
// They must agree bit for bit for 200 steps after the mutation.
func TestStepLayoutTracksMutations(t *testing.T) {
	cases := []struct {
		name   string
		before func(m *Machine, ids []TaskID) error
		mutate func(m *Machine, ids []TaskID) error
	}{
		{name: "AddTask", mutate: func(m *Machine, ids []TaskID) error {
			_, err := m.AddTask(&envApp{class: power.AVXHeavy, util: 0.5, bwGB: 80, amp: 0.4}, Placement{CoreLo: 64, CoreHi: 79, SMTSlot: 1, COS: 3})
			return err
		}},
		{name: "RemoveTask", mutate: func(m *Machine, ids []TaskID) error {
			m.RemoveTask(ids[3])
			return nil
		}},
		{name: "SetPlacement", mutate: func(m *Machine, ids []TaskID) error {
			return m.SetPlacement(ids[3], Placement{CoreLo: 70, CoreHi: 90, SMTSlot: 1, COS: 0})
		}},
		{name: "SetPlacements", mutate: func(m *Machine, ids []TaskID) error {
			return m.SetPlacements(map[TaskID]Placement{
				ids[0]: {CoreLo: 0, CoreHi: 39, COS: 0},
				ids[1]: {CoreLo: 40, CoreHi: 63, COS: 2},
			})
		}},
		{name: "SetCOS", mutate: func(m *Machine, ids []TaskID) error {
			return m.SetCOS(1, COSConfig{Ways: cache.Mask{Lo: 2, Hi: 3}, MBAFrac: 0.3})
		}},
		{name: "SetOffline", mutate: func(m *Machine, ids []TaskID) error {
			return m.SetOffline(0, 40)
		}},
		{name: "ClearOffline",
			before: func(m *Machine, ids []TaskID) error { return m.SetOffline(20, 70) },
			mutate: func(m *Machine, ids []TaskID) error {
				m.ClearOffline()
				return nil
			}},
		{name: "SetFreqDerate", mutate: func(m *Machine, ids []TaskID) error {
			m.SetFreqDerate(0.8)
			return nil
		}},
		{name: "SetTelemetry", mutate: func(m *Machine, ids []TaskID) error {
			m.SetTelemetry(telemetry.NewRegistry())
			return nil
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kept, ids := layoutTwin(t)
			rebuilt, _ := layoutTwin(t)
			step := func(phase string, n int) {
				for s := 0; s < n; s++ {
					kept.StepN(1)
					rebuilt.InvalidateCapture()
					rebuilt.StepN(1)
					if a, b := machineBits(kept), machineBits(rebuilt); !reflect.DeepEqual(a, b) {
						t.Fatalf("%s step %d: kept layout diverges from a rebuilt one", phase, s)
					}
				}
			}
			for _, f := range []func(*Machine, []TaskID) error{tc.before, tc.mutate} {
				if f == nil {
					continue
				}
				step("before", 50)
				for _, m := range []*Machine{kept, rebuilt} {
					if err := f(m, ids); err != nil {
						t.Fatal(err)
					}
				}
			}
			step("after", 200)
		})
	}
}
