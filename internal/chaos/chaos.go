// Package chaos injects deterministic fault schedules into a
// running co-location experiment. Every event drives the simulator
// through its existing interfaces — core offlining through the machine,
// co-runner drift through the workload model — so a chaos run
// exercises exactly the control surface the AUM controller sees in a
// clean run, plus the perturbation.
//
// Two fault kinds model the drift the paper's robustness concern
// (Section VII-D) exposes a shared processor to:
//
//   - CoreOffline: the lowest N cores drop out (hitting the prefill
//     region, which every division anchors at the bottom of the core
//     range), as with a hardware fault or a hypervisor reclaiming CPUs.
//   - PhaseFlip: the co-runner switches into a markedly more
//     memory-hungry behavioural phase, invalidating the AUV bucket the
//     controller profiled — the post-profiling drift Section VII-D
//     names as AUM's limitation.
//
// Events with a positive Duration revert automatically; the injector
// logs every application and revert so harnesses can correlate SLO
// violation windows with what was injected.
package chaos

import (
	"fmt"
	"math"
	"sort"

	"aum/internal/machine"
	"aum/internal/telemetry"
	"aum/internal/workload"
)

// Kind enumerates the injectable fault classes.
type Kind int

const (
	CoreOffline Kind = iota
	PhaseFlip
)

var kindNames = [...]string{"CoreOffline", "PhaseFlip"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Event is one scheduled fault.
type Event struct {
	// At is the simulation time the fault strikes.
	At float64
	// Kind selects the fault class and which parameter below applies.
	Kind Kind
	// Duration, when positive, reverts the fault at At+Duration:
	// offlined cores come back and a flipped co-runner returns to its
	// profiled behaviour. 0 makes the fault permanent for the rest of
	// the run.
	Duration float64

	// Cores is how many of the lowest cores CoreOffline removes.
	Cores int
}

// Schedule is a deterministic fault plan: a list of events.
type Schedule struct {
	Events []Event
}

// Validate checks the schedule for injectability: every event's
// parameters, and that no two faults of one kind are active at once.
func (s *Schedule) Validate() error {
	for i, ev := range s.Events {
		if ev.At < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative time %v", i, ev.Kind, ev.At)
		}
		if ev.Duration < 0 {
			return fmt.Errorf("chaos: event %d (%s): negative duration %v", i, ev.Kind, ev.Duration)
		}
		switch ev.Kind {
		case CoreOffline:
			if ev.Cores < 1 {
				return fmt.Errorf("chaos: event %d: CoreOffline with %d cores", i, ev.Cores)
			}
		case PhaseFlip:
			// No parameters.
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %d", i, int(ev.Kind))
		}
		// A revert undoes its kind outright (ClearOffline brings every
		// core back, a flip back restores the profiled phase), so it
		// would end another active fault of that kind early.
		for j, prev := range s.Events[:i] {
			if prev.Kind == ev.Kind && prev.At < ev.end() && ev.At < prev.end() {
				return fmt.Errorf("chaos: events %d and %d: overlapping %s faults", j, i, ev.Kind)
			}
		}
	}
	return nil
}

// end is when the fault reverts, +Inf for a permanent one. A fault is
// active over [At, end).
func (ev Event) end() float64 {
	if ev.Duration > 0 {
		return ev.At + ev.Duration
	}
	return math.Inf(1)
}

// FirstAt returns the time of the earliest event, or -1 for an empty
// schedule. Harnesses anchor recovery-time measurement here.
func (s *Schedule) FirstAt() float64 {
	first := -1.0
	for _, ev := range s.Events {
		if first < 0 || ev.At < first {
			first = ev.At
		}
	}
	return first
}

// Target is the set of simulator handles the injector drives. BE may
// be nil (exclusive runs skip co-runner events).
type Target struct {
	M  *machine.Machine
	BE *workload.App
}

// Applied is one log entry of the injector: an event taking effect or
// reverting.
type Applied struct {
	Now    float64
	Event  Event
	Revert bool
}

func (a Applied) String() string {
	verb := "inject"
	if a.Revert {
		verb = "revert"
	}
	return fmt.Sprintf("t=%.3f %s %s", a.Now, verb, a.Event.Kind)
}

// Injector walks a schedule against a live target. It is single-use:
// one injector per run.
type Injector struct {
	events  []Event // sorted by At
	reverts []Event // pending auto-reverts, sorted by At
	tgt     Target
	pos     int
	applied []Applied

	tel     *telemetry.Registry
	faults  *telemetry.Counter
	revertC *telemetry.Counter
}

// SetTelemetry attaches a registry: every fault application and revert
// emits a "chaos" event and bumps the per-kind fault counters.
func (in *Injector) SetTelemetry(reg *telemetry.Registry) {
	in.tel = reg
	if reg == nil {
		in.faults, in.revertC = nil, nil
		return
	}
	in.faults = reg.Counter("aum_chaos_faults_total")
	in.revertC = reg.Counter("aum_chaos_reverts_total")
}

// NewInjector validates the schedule and binds it to a target.
func NewInjector(s Schedule, tgt Target) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if tgt.M == nil {
		return nil, fmt.Errorf("chaos: injector needs a machine")
	}
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return &Injector{events: events, tgt: tgt}, nil
}

// Applied returns the log of injected and reverted events so far.
func (in *Injector) Applied() []Applied { return in.applied }

// Done reports whether every event (and revert) has fired.
func (in *Injector) Done() bool {
	return in.pos >= len(in.events) && len(in.reverts) == 0
}

// NextEventAt reports the absolute time of the next scheduled fault or
// pending auto-revert, or +Inf when the schedule is exhausted — the
// fast-forward horizon contract (DESIGN.md §9): Advance is a no-op for
// any now strictly below this time.
func (in *Injector) NextEventAt() float64 {
	next := math.Inf(1)
	if in.pos < len(in.events) {
		next = in.events[in.pos].At
	}
	if len(in.reverts) > 0 && in.reverts[0].At < next {
		next = in.reverts[0].At
	}
	return next
}

// Advance applies every event and revert whose time has come, in time
// order with reverts first at a tie, so a revert due no later than the
// next fault of its kind cannot undo that fault when both fall in one
// step.
func (in *Injector) Advance(now float64) error {
	for {
		inject := in.pos < len(in.events) && in.events[in.pos].At <= now
		revert := len(in.reverts) > 0 && in.reverts[0].At <= now
		switch {
		case revert && (!inject || in.reverts[0].At <= in.events[in.pos].At):
			rv := in.reverts[0]
			in.reverts = in.reverts[1:]
			if err := in.revert(rv, now); err != nil {
				return err
			}
		case inject:
			ev := in.events[in.pos]
			in.pos++
			if err := in.apply(ev, now); err != nil {
				return err
			}
			if ev.Duration > 0 {
				rv := ev
				rv.At = ev.end()
				in.reverts = append(in.reverts, rv)
				sort.SliceStable(in.reverts, func(i, j int) bool { return in.reverts[i].At < in.reverts[j].At })
			}
		default:
			return nil
		}
	}
}

func (in *Injector) apply(ev Event, now float64) error {
	switch ev.Kind {
	case CoreOffline:
		n := ev.Cores
		if max := in.tgt.M.Platform().Cores; n > max-1 {
			n = max - 1 // never offline the whole socket
		}
		if err := in.tgt.M.SetOffline(0, n-1); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	case PhaseFlip:
		if in.tgt.BE != nil && !in.tgt.BE.PhaseFlipped() {
			in.tgt.BE.FlipPhase()
		}
	}
	in.applied = append(in.applied, Applied{Now: now, Event: ev})
	in.faults.Inc()
	in.tel.Emit(now, "chaos", "fault-inject",
		telemetry.F("kind", ev.Kind.String()),
		telemetry.Ff("at", ev.At),
		telemetry.Ff("duration_s", ev.Duration))
	return nil
}

func (in *Injector) revert(ev Event, now float64) error {
	switch ev.Kind {
	case CoreOffline:
		in.tgt.M.ClearOffline()
	case PhaseFlip:
		if in.tgt.BE != nil && in.tgt.BE.PhaseFlipped() {
			in.tgt.BE.FlipPhase()
		}
	}
	in.applied = append(in.applied, Applied{Now: now, Event: ev, Revert: true})
	in.revertC.Inc()
	in.tel.Emit(now, "chaos", "fault-revert", telemetry.F("kind", ev.Kind.String()))
	return nil
}

// PhaseFlipCoreLoss is the acceptance scenario of the robustness
// evaluation: at time at, the co-runner flips into its unprofiled
// phase and the lowest cores cores go offline for outageS seconds.
// The flip is permanent — recovery must come from the controller
// adapting, not the fault expiring.
func PhaseFlipCoreLoss(at float64, cores int, outageS float64) Schedule {
	return Schedule{Events: []Event{
		{At: at, Kind: PhaseFlip},
		{At: at, Kind: CoreOffline, Cores: cores, Duration: outageS},
	}}
}
