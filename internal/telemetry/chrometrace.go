package telemetry

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
)

// Well-known trace process IDs, so the subsystems of one run land in
// stable rows of the chrome://tracing timeline.
const (
	PIDServe      = 1 // serving engine: request lifecycles
	PIDController = 2 // resource manager: division phases, watchdog
	PIDMachine    = 3 // machine: power / bandwidth counters
)

// TraceEvent is one record of the Chrome trace_event format
// (chrome://tracing, Perfetto). Timestamps are microseconds of
// *simulated* time.
type TraceEvent struct {
	Name string             `json:"name,omitempty"`
	Cat  string             `json:"cat,omitempty"`
	Ph   string             `json:"ph"`
	Ts   float64            `json:"ts"`
	Dur  float64            `json:"dur,omitempty"`
	PID  int                `json:"pid"`
	TID  int                `json:"tid"`
	Args map[string]float64 `json:"args,omitempty"`
}

// Trace collects Chrome trace_event records. All methods are safe for
// concurrent use and no-ops on a nil receiver, so instrumentation can
// be unconditional.
type Trace struct {
	mu     sync.Mutex
	events []TraceEvent
	names  []TraceEvent // metadata (process/thread names), emitted first
}

// NewTrace returns an empty trace buffer.
func NewTrace() *Trace { return &Trace{} }

const usPerS = 1e6

func (t *Trace) push(ev TraceEvent) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, ev)
	t.mu.Unlock()
}

// Span records a complete duration event [startS, endS] in seconds of
// simulated time.
func (t *Trace) Span(name, cat string, pid, tid int, startS, endS float64, args map[string]float64) {
	if t == nil {
		return
	}
	dur := (endS - startS) * usPerS
	if dur < 0 {
		dur = 0
	}
	t.push(TraceEvent{Name: name, Cat: cat, Ph: "X", Ts: startS * usPerS, Dur: dur, PID: pid, TID: tid, Args: args})
}

// Begin opens a nestable duration; close it with End at the same
// pid/tid. An unmatched Begin renders to the end of the timeline.
func (t *Trace) Begin(name, cat string, pid, tid int, nowS float64) {
	t.push(TraceEvent{Name: name, Cat: cat, Ph: "B", Ts: nowS * usPerS, PID: pid, TID: tid})
}

// End closes the innermost open Begin on pid/tid.
func (t *Trace) End(pid, tid int, nowS float64) {
	t.push(TraceEvent{Ph: "E", Ts: nowS * usPerS, PID: pid, TID: tid})
}

// CounterSample records counter-track values; chrome://tracing renders
// each named series as a stacked area chart.
func (t *Trace) CounterSample(name string, pid int, nowS float64, values map[string]float64) {
	t.push(TraceEvent{Name: name, Ph: "C", Ts: nowS * usPerS, PID: pid, Args: values})
}

// SetProcessName labels a pid row in the viewer.
func (t *Trace) SetProcessName(pid int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.names = append(t.names, TraceEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]float64{}})
	// The trace_event metadata arg is a string; stash it separately so
	// the typed Args map stays float-only for regular events.
	t.names[len(t.names)-1].Cat = name
	t.mu.Unlock()
}

// Len returns how many events (excluding metadata) are buffered.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// traceFile is the on-disk JSON object format.
type traceFile struct {
	TraceEvents     []json.RawMessage `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
}

// metaEvent is the string-args shape of metadata records.
type metaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteJSON writes the buffered events as a Chrome trace_event JSON
// object, sorted by timestamp for a deterministic file.
func (t *Trace) WriteJSON(w io.Writer) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	events := append([]TraceEvent(nil), t.events...)
	names := append([]TraceEvent(nil), t.names...)
	t.mu.Unlock()
	// Equal-timestamp events tie-break on (PID, TID, Name) so exports
	// from different worker widths — which buffer events in different
	// orders — serialize to identical bytes.
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		if a.TID != b.TID {
			return a.TID < b.TID
		}
		return a.Name < b.Name
	})

	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: make([]json.RawMessage, 0, len(events)+len(names))}
	for _, m := range names {
		raw, err := json.Marshal(metaEvent{Name: m.Name, Ph: m.Ph, PID: m.PID, Args: map[string]string{"name": m.Cat}})
		if err != nil {
			return err
		}
		f.TraceEvents = append(f.TraceEvents, raw)
	}
	for _, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		f.TraceEvents = append(f.TraceEvents, raw)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
