package trace

import (
	"math"
	"sort"
	"sync"

	"aum/internal/serve"
)

// Source is the arrival contract the fleet layer consumes: Emit returns
// the requests arriving in (now, now+dt], SetRate rescales the offered
// load (where that makes sense), and NextEventAt is the fast-forward
// horizon of DESIGN.md §9 — no Emit call whose window ends strictly
// before that time produces a request. Generator is the deterministic
// implementation; LiveSource is the externally-fed one the serving
// gateway injects real HTTP requests through.
type Source interface {
	Emit(now, dt float64) []*serve.Request
	SetRate(r float64)
	NextEventAt() float64
}

// The two implementations must keep satisfying the contract.
var (
	_ Source = (*Generator)(nil)
	_ Source = (*LiveSource)(nil)
)

// LiveSource is an arrival source fed from outside the simulation: the
// serving gateway submits one entry per live HTTP request, and the
// fleet's barrier loop drains them through the same Emit interface the
// synthetic generators use. Submit is safe for concurrent use (HTTP
// handler goroutines); Emit and NextEventAt are called only from the
// single-threaded barrier code, but take the same lock so the two
// sides never race.
//
// Arrivals are clamped forward: once Emit has covered (now, now+dt],
// no later Submit may land inside that window (the simulation already
// moved past it), so requests asked for at or before the emitted
// frontier are stamped just after it.
type LiveSource struct {
	mu      sync.Mutex
	pending []*serve.Request // sorted by (Arrival, ID)
	floor   float64          // end of the last emitted window
	nextID  int
	buf     []*serve.Request // Emit result backing, reused across calls
}

// NewLiveSource returns an empty live arrival source.
func NewLiveSource() *LiveSource { return &LiveSource{} }

// Submit schedules one request at simulated time atS (clamped to just
// past the emitted frontier) and returns its assigned ID and the
// actual arrival time. The ID sequence is the same dense 1,2,3,...
// a Generator produces, so trace IDs derived from it stay unique.
func (s *LiveSource) Submit(atS float64, promptLen, outputLen int) (id int, arrival float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	if atS <= s.floor {
		atS = s.floor + 1e-9
	}
	r := &serve.Request{ID: s.nextID, Arrival: atS, PromptLen: promptLen, OutputLen: outputLen}
	// Insert keeping (Arrival, ID) order; concurrent submitters can
	// land out of order relative to their clamped arrival times.
	i := sort.Search(len(s.pending), func(i int) bool {
		p := s.pending[i]
		if p.Arrival != r.Arrival {
			return p.Arrival > r.Arrival
		}
		return p.ID > r.ID
	})
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = r
	return r.ID, r.Arrival
}

// Emit returns the requests arriving in (now, now+dt] and advances the
// emitted frontier. The returned slice (not the requests it points to)
// is reused by the next Emit.
func (s *LiveSource) Emit(now, dt float64) []*serve.Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if end := now + dt; end > s.floor {
		s.floor = end
	}
	out := s.buf[:0]
	n := 0
	for ; n < len(s.pending) && s.pending[n].Arrival <= s.floor; n++ {
		out = append(out, s.pending[n])
	}
	if n > 0 {
		s.pending = append(s.pending[:0], s.pending[n:]...)
	}
	s.buf = out
	return out
}

// SetRate is a no-op: a live source's rate is whatever its callers
// submit.
func (s *LiveSource) SetRate(float64) {}

// NextEventAt reports the earliest pending arrival, or +Inf when no
// request is waiting — the skip-horizon contract (DESIGN.md §9).
func (s *LiveSource) NextEventAt() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.pending) == 0 {
		return math.Inf(1)
	}
	return s.pending[0].Arrival
}

// Pending reports how many submitted requests have not been emitted
// into the simulation yet.
func (s *LiveSource) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}
