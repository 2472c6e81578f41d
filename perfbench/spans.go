package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval around a facade call the benchmark makes.
// Spans of one gateway request share a request id.
type span struct {
	ID      int       `json:"id"`
	Parent  int       `json:"parent"` // 0 = root
	Name    string    `json:"name"`
	Request int       `json:"request,omitempty"`
	Start   time.Time `json:"-"`
	End     time.Time `json:"-"`
	StartUs float64   `json:"start_us"`
	DurUs   float64   `json:"dur_us"`
	SelfUs  float64   `json:"self_us"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog is
// the untraced mode: every method is a no-op, so call sites need no
// branches.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{} }

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(name string, parent, request int) int {
	if l == nil {
		return 0
	}
	return l.add(name, parent, request, time.Now(), time.Time{})
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[id-1].End = now
	l.mu.Unlock()
}

// add records a span; a zero end leaves it open.
func (l *spanLog) add(name string, parent, request int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Request: request, Start: start, End: end})
	return len(l.spans)
}

// closed returns a copy of every span that has ended.
func (l *spanLog) closed() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]span, 0, len(l.spans))
	for _, s := range l.spans {
		if !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.End.Sub(s.Start) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// writeFile writes every closed span, with its self time, as JSON.
func (l *spanLog) writeFile(path string, origin time.Time) error {
	if l == nil {
		return nil
	}
	closed := l.closed()
	self := selfTimes(closed)
	for i := range closed {
		s := &closed[i]
		s.StartUs = float64(s.Start.Sub(origin).Nanoseconds()) / 1e3
		s.DurUs = float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3
		s.SelfUs = float64(self[s.ID].Nanoseconds()) / 1e3
	}
	b, err := json.Marshal(closed)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfByName sums self time per span name, for the traced run's
// summary.
func (l *spanLog) selfByName() map[string]time.Duration {
	if l == nil {
		return nil
	}
	closed := l.closed()
	self := selfTimes(closed)
	out := map[string]time.Duration{}
	for _, s := range closed {
		out[s.Name] += self[s.ID]
	}
	return out
}
