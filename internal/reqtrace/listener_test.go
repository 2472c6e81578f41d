package reqtrace

import (
	"sync"
	"testing"
)

// recListener records every callback in order.
type recListener struct {
	mu       sync.Mutex
	firsts   []uint64
	tokens   []int
	outcomes map[uint64]string
}

func newRecListener() *recListener {
	return &recListener{outcomes: make(map[uint64]string)}
}

func (l *recListener) OnFirstToken(tid uint64, _ float64) {
	l.mu.Lock()
	l.firsts = append(l.firsts, tid)
	l.mu.Unlock()
}

func (l *recListener) OnToken(_ uint64, _ float64, tokens int) {
	l.mu.Lock()
	l.tokens = append(l.tokens, tokens)
	l.mu.Unlock()
}

func (l *recListener) OnOutcome(tid uint64, _ float64, outcome string) {
	l.mu.Lock()
	l.outcomes[tid] = outcome
	l.mu.Unlock()
}

func TestListenerLifecycleCallbacks(t *testing.T) {
	tr := New(Config{})
	l := newRecListener()
	tr.SetListener(l)

	tid := MakeTraceID(0, 1)
	tr.Submitted(tid, 0.1, 0)
	tr.PrefillStart(tid, 0.2, 0)
	tr.FirstToken(tid, 0.3, true, 0, 0, 0)
	tr.Token(tid, 0.4, 0.1, true, 0.05, 0, 0)
	tr.Token(tid, 0.5, 0.1, true, 0.05, 0, 0)
	tr.Retire(tid, 0.6, 0)

	if len(l.firsts) != 1 || l.firsts[0] != tid {
		t.Fatalf("OnFirstToken calls = %v, want exactly [%d]", l.firsts, tid)
	}
	if len(l.tokens) != 2 || l.tokens[0] != 1 || l.tokens[1] != 2 {
		t.Fatalf("OnToken running counts = %v, want [1 2]", l.tokens)
	}
	if l.outcomes[tid] != "done" {
		t.Fatalf("outcome = %q, want done", l.outcomes[tid])
	}
}

func TestListenerShedAndDropped(t *testing.T) {
	tr := New(Config{})
	l := newRecListener()
	tr.SetListener(l)

	shedID := MakeTraceID(0, 1)
	tr.Shed(shedID, 0.1, "max-queue", 0)
	if l.outcomes[shedID] != "shed" {
		t.Fatalf("shed outcome = %q, want shed", l.outcomes[shedID])
	}

	dropID := MakeTraceID(0, 2)
	tr.Submitted(dropID, 0.1, 0)
	tr.PrefillStart(dropID, 0.2, 0)
	tr.FirstToken(dropID, 0.3, true, 0, 0, 0)
	tr.Dropped(dropID, 0.3, 0)
	if l.outcomes[dropID] != "dropped" {
		t.Fatalf("backlog-drop outcome = %q, want dropped", l.outcomes[dropID])
	}
}

func TestListenerNilSafe(t *testing.T) {
	tr := New(Config{})
	tid := MakeTraceID(0, 1)
	// No listener installed: hooks must not panic.
	tr.Submitted(tid, 0.1, 0)
	tr.PrefillStart(tid, 0.2, 0)
	tr.FirstToken(tid, 0.3, true, 0, 0, 0)
	tr.Retire(tid, 0.4, 0)
	// Nil tracer: SetListener must not panic either.
	var nilT *Tracer
	nilT.SetListener(newRecListener())
}
