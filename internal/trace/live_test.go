package trace

import (
	"math"
	"testing"
)

func TestLiveSourceEmitWindow(t *testing.T) {
	s := NewLiveSource()
	id1, at1 := s.Submit(0.10, 8, 4)
	id2, at2 := s.Submit(0.30, 8, 4)
	if id1 != 1 || id2 != 2 {
		t.Fatalf("ids = %d, %d, want dense 1, 2", id1, id2)
	}
	if at1 != 0.10 || at2 != 0.30 {
		t.Fatalf("arrivals = %g, %g, want as requested", at1, at2)
	}
	if got := s.NextEventAt(); got != 0.10 {
		t.Fatalf("NextEventAt = %g, want 0.10", got)
	}

	got := s.Emit(0, 0.05)
	if len(got) != 0 {
		t.Fatalf("Emit(0, 0.05) returned %d requests, want 0", len(got))
	}
	got = s.Emit(0.05, 0.05)
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("Emit(0.05, 0.05) = %+v, want request 1", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	got = s.Emit(0.10, 0.20)
	if len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("Emit(0.10, 0.20) = %+v, want request 2", got)
	}
	if !math.IsInf(s.NextEventAt(), 1) {
		t.Fatalf("NextEventAt on empty source = %g, want +Inf", s.NextEventAt())
	}
}

func TestLiveSourceClampsPastEmittedFrontier(t *testing.T) {
	s := NewLiveSource()
	s.Emit(0, 0.5) // frontier now 0.5
	_, at := s.Submit(0.2, 8, 4)
	if at <= 0.5 {
		t.Fatalf("arrival %g not clamped past the 0.5 frontier", at)
	}
	if got := s.Emit(0.5, 0.5); len(got) != 1 {
		t.Fatalf("clamped request not emitted in the next window")
	}
}

func TestLiveSourceOrdersByArrival(t *testing.T) {
	s := NewLiveSource()
	s.Submit(0.4, 8, 4)
	s.Submit(0.1, 8, 4)
	s.Submit(0.2, 8, 4)
	got := s.Emit(0, 1)
	if len(got) != 3 {
		t.Fatalf("Emit returned %d requests, want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Arrival < got[i-1].Arrival {
			t.Fatalf("emitted out of order: %g before %g", got[i-1].Arrival, got[i].Arrival)
		}
	}
}

func TestSourceInterfaceSatisfied(t *testing.T) {
	var _ Source = NewGenerator(Chatbot(), 1)
	var _ Source = NewLiveSource()
}
