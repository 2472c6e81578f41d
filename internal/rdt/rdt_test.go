package rdt

import (
	"testing"

	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/power"
)

type nullApp struct{ name string }

func (n *nullApp) Name() string { return n.name }
func (n *nullApp) Demand(machine.Env) machine.Demand {
	return machine.Demand{Class: power.Scalar, Util: 0.5}
}
func (n *nullApp) Step(env machine.Env, now float64) machine.Usage {
	return machine.Usage{Work: machine.DT}
}

func setup(t *testing.T) (*Controller, machine.TaskID) {
	t.Helper()
	m := machine.New(platform.GenA())
	c := New(m)
	id, err := m.AddTask(&nullApp{name: "x"}, machine.Placement{CoreLo: 0, CoreHi: 31, SMTSlot: 0, COS: 0})
	if err != nil {
		t.Fatal(err)
	}
	return c, id
}

func TestAllocateWays(t *testing.T) {
	c, _ := setup(t)
	if err := c.AllocateWays(1, 10, 14); err != nil {
		t.Fatal(err)
	}
	m, err := c.Ways(1)
	if err != nil || m.Lo != 10 || m.Hi != 14 {
		t.Fatalf("ways = %v, %v", m, err)
	}
	if err := c.AllocateWays(1, 10, 99); err == nil {
		t.Fatal("oversized mask accepted")
	}
	if err := c.AllocateWays(99, 0, 1); err == nil {
		t.Fatal("invalid COS accepted")
	}
}

func TestMBAGranularity(t *testing.T) {
	c, _ := setup(t)
	// MBA rounds up to 10% steps and clamps to [10, 100].
	cases := map[int]int{5: 10, 10: 10, 15: 20, 95: 100, 200: 100, -5: 10}
	for in, want := range cases {
		if err := c.SetMBA(2, in); err != nil {
			t.Fatal(err)
		}
		got, err := c.MBA(2)
		if err != nil || got != want {
			t.Fatalf("SetMBA(%d) -> %d, want %d", in, got, want)
		}
	}
}

func TestAssignAndPin(t *testing.T) {
	c, id := setup(t)
	if err := c.Assign(id, 3); err != nil {
		t.Fatal(err)
	}
	p, _ := c.Machine().Placement(id)
	if p.COS != 3 {
		t.Fatalf("COS = %d", p.COS)
	}
	if err := c.Pin(id, 40, 60, 0); err != nil {
		t.Fatal(err)
	}
	p, _ = c.Machine().Placement(id)
	if p.CoreLo != 40 || p.CoreHi != 60 {
		t.Fatalf("pin = %+v", p)
	}
	if err := c.Pin(id, 90, 120, 0); err == nil {
		t.Fatal("out-of-range pin accepted")
	}
	if err := c.Pin(machine.TaskID(999), 0, 1, 0); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestPinAllAtomicSwap(t *testing.T) {
	m := machine.New(platform.GenA())
	c := New(m)
	a, _ := m.AddTask(&nullApp{name: "a"}, machine.Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0})
	b, _ := m.AddTask(&nullApp{name: "b"}, machine.Placement{CoreLo: 48, CoreHi: 95, SMTSlot: 0})
	err := c.PinAll([]Region{
		{ID: a, Lo: 60, Hi: 95},
		{ID: b, Lo: 0, Hi: 59},
	})
	if err != nil {
		t.Fatalf("atomic swap: %v", err)
	}
	pa, _ := m.Placement(a)
	if pa.CoreLo != 60 {
		t.Fatalf("swap not applied: %+v", pa)
	}
}
