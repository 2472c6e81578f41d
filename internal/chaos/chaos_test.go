package chaos

import (
	"strings"
	"testing"

	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/workload"
)

func testTarget() Target {
	be := workload.SPECjbb()
	return Target{
		M:  machine.New(platform.GenA()),
		BE: workload.New(be, 3),
	}
}

func TestScheduleValidation(t *testing.T) {
	bad := []Schedule{
		{Events: []Event{{At: -1, Kind: PhaseFlip}}},
		{Events: []Event{{At: 1, Kind: PhaseFlip, Duration: -2}}},
		{Events: []Event{{At: 1, Kind: CoreOffline, Cores: 0}}},
		{Events: []Event{{At: 1, Kind: Kind(99)}}},
		// Overlapping faults of one kind: the first revert would end
		// both outages.
		{Events: []Event{
			{At: 1, Kind: CoreOffline, Cores: 4, Duration: 2},
			{At: 2, Kind: CoreOffline, Cores: 6, Duration: 0.5},
		}},
		{Events: []Event{
			{At: 3, Kind: PhaseFlip, Duration: 1},
			{At: 1, Kind: PhaseFlip, Duration: 2.5},
		}},
		{Events: []Event{
			{At: 1, Kind: PhaseFlip},
			{At: 4, Kind: PhaseFlip, Duration: 1},
		}},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Fatalf("schedule %d accepted", i)
		}
		if _, err := NewInjector(s, testTarget()); err == nil {
			t.Fatalf("injector accepted bad schedule %d", i)
		}
	}
	good := Schedule{Events: []Event{
		{At: 15, Kind: CoreOffline, Cores: 8, Duration: 5},
		{At: 10, Kind: PhaseFlip, Duration: 2},
		{At: 20, Kind: PhaseFlip},
		{At: 20, Kind: CoreOffline, Cores: 4, Duration: 1}, // strikes as the first reverts
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := good.FirstAt(); got != 10 {
		t.Fatalf("FirstAt = %v, want 10", got)
	}
	var empty Schedule
	if empty.FirstAt() != -1 {
		t.Fatal("empty schedule should report FirstAt -1")
	}
}

func TestInjectorAppliesAndReverts(t *testing.T) {
	tgt := testTarget()
	s := Schedule{Events: []Event{
		{At: 1, Kind: CoreOffline, Cores: 4, Duration: 0.8},
		{At: 1.5, Kind: PhaseFlip, Duration: 1},
		{At: 2, Kind: CoreOffline, Cores: 6, Duration: 0.5},
		{At: 2.8, Kind: PhaseFlip},
	}}
	in, err := NewInjector(s, tgt)
	if err != nil {
		t.Fatal(err)
	}
	step := func(now float64) {
		if err := in.Advance(now); err != nil {
			t.Fatal(err)
		}
	}
	if got := in.NextEventAt(); got != 1 {
		t.Fatalf("NextEventAt = %v, want 1", got)
	}
	step(0.5)
	if _, _, off := tgt.M.OfflineRange(); off {
		t.Fatal("cores offline before the event")
	}
	step(1)
	if lo, hi, off := tgt.M.OfflineRange(); !off || lo != 0 || hi != 3 {
		t.Fatalf("offline range = %d..%d (%v), want 0..3", lo, hi, off)
	}
	step(1.5)
	if !tgt.BE.PhaseFlipped() {
		t.Fatal("phase not flipped")
	}
	step(1.8)
	if _, _, off := tgt.M.OfflineRange(); off {
		t.Fatal("first outage not reverted")
	}
	step(2)
	if lo, hi, off := tgt.M.OfflineRange(); !off || lo != 0 || hi != 5 {
		t.Fatalf("offline range = %d..%d (%v), want 0..5", lo, hi, off)
	}
	if got := in.NextEventAt(); got != 2.5 {
		t.Fatalf("NextEventAt = %v, want the 2.5 reverts", got)
	}
	step(2.5)
	if tgt.BE.PhaseFlipped() {
		t.Fatal("bounded phase flip not reverted")
	}
	if _, _, off := tgt.M.OfflineRange(); off {
		t.Fatal("cores not restored")
	}
	step(3)
	if !tgt.BE.PhaseFlipped() {
		t.Fatal("permanent phase flip reverted")
	}
	if !in.Done() {
		t.Fatal("injector not done after all events")
	}
	// The log pairs every bounded event with its revert.
	var injects, reverts int
	for _, a := range in.Applied() {
		if a.Revert {
			reverts++
		} else {
			injects++
		}
		if a.String() == "" {
			t.Fatal("empty log entry")
		}
	}
	if injects != 4 || reverts != 3 {
		t.Fatalf("log: %d injects, %d reverts (want 4/3)", injects, reverts)
	}
}

func TestInjectorWithoutBE(t *testing.T) {
	// Co-runner events on an exclusive run are no-ops, not panics.
	tgt := testTarget()
	tgt.BE = nil
	s := Schedule{Events: []Event{
		{At: 1, Kind: PhaseFlip, Duration: 1},
		{At: 3, Kind: PhaseFlip},
	}}
	in, err := NewInjector(s, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Advance(5); err != nil {
		t.Fatal(err)
	}
	if !in.Done() {
		t.Fatal("injector not done")
	}
}

// TestRevertBeforeLaterFault checks that a revert due before (or as)
// the next fault of its kind runs first when one Advance covers both,
// so it cannot end the new outage.
func TestRevertBeforeLaterFault(t *testing.T) {
	for _, end := range []float64{1.9995, 2} {
		tgt := testTarget()
		s := Schedule{Events: []Event{
			{At: 1, Kind: CoreOffline, Cores: 4, Duration: end - 1},
			{At: 2, Kind: CoreOffline, Cores: 6, Duration: 0.5},
			{At: 1, Kind: PhaseFlip, Duration: end - 1},
			{At: 2, Kind: PhaseFlip},
		}}
		in, err := NewInjector(s, tgt)
		if err != nil {
			t.Fatal(err)
		}
		for _, now := range []float64{1, 2} {
			if err := in.Advance(now); err != nil {
				t.Fatal(err)
			}
		}
		if lo, hi, off := tgt.M.OfflineRange(); !off || lo != 0 || hi != 5 {
			t.Fatalf("first outage ends at %v: offline range %d..%d (%v) at t=2, want 0..5", end, lo, hi, off)
		}
		if !tgt.BE.PhaseFlipped() {
			t.Fatalf("first flip ends at %v: second flip undone at t=2", end)
		}
	}
}

func TestCoreOfflineNeverKillsWholeSocket(t *testing.T) {
	tgt := testTarget()
	s := Schedule{Events: []Event{{At: 0, Kind: CoreOffline, Cores: 10_000}}}
	in, err := NewInjector(s, tgt)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Advance(0); err != nil {
		t.Fatal(err)
	}
	lo, hi, off := tgt.M.OfflineRange()
	if !off || lo != 0 || hi != tgt.M.Platform().Cores-2 {
		t.Fatalf("offline range %d..%d, want one core left", lo, hi)
	}
}

func TestKindString(t *testing.T) {
	for k := CoreOffline; k <= PhaseFlip; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Fatalf("kind %d unnamed", int(k))
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Fatal("out-of-range kind formatting")
	}
}
