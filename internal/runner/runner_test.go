package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachIndexedResults checks rule 2: results written by index
// land in their slot regardless of completion order.
func TestForEachIndexedResults(t *testing.T) {
	got := make([]int, 16)
	err := ForEach(context.Background(), len(got), Options{Workers: 4}, func(_ context.Context, i int) error {
		time.Sleep(time.Duration(16-i) * time.Millisecond) // finish out of order
		got[i] = i * i
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestForEachLowestIndexedError checks rule 3: with several failures,
// the reported one is the lowest-indexed, under any width.
func TestForEachLowestIndexedError(t *testing.T) {
	errBoom := errors.New("boom")
	for _, w := range []int{1, 2, 8} {
		err := ForEach(context.Background(), 10, Options{Workers: w}, func(_ context.Context, i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("scenario %d: %w", i, errBoom)
			}
			return nil
		})
		if err == nil || !errors.Is(err, errBoom) {
			t.Fatalf("width %d: err = %v, want boom", w, err)
		}
		if want := "runner: scenario 3:"; err.Error()[:len(want)] != want {
			t.Fatalf("width %d: err = %q, want prefix %q", w, err.Error(), want)
		}
	}
}

// TestForEachPanicIsolation checks that a panicking scenario becomes
// an error and does not take down its siblings.
func TestForEachPanicIsolation(t *testing.T) {
	var started, finished atomic.Int32
	barrier := make(chan struct{})
	err := ForEach(context.Background(), 4, Options{Workers: 4}, func(_ context.Context, i int) error {
		if started.Add(1) == 4 {
			close(barrier) // all four are in flight before anyone panics
		}
		<-barrier
		if i == 1 {
			panic("kaboom")
		}
		finished.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want PanicError", err)
	}
	if pe.Index != 1 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v", pe)
	}
	if finished.Load() != 3 {
		t.Fatalf("finished = %d sibling scenarios, want 3", finished.Load())
	}
}

// TestForEachCancellation checks that a cancelled parent context stops
// the pool and is reported.
func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ForEach(ctx, 8, Options{Workers: 2}, func(_ context.Context, i int) error {
		t.Errorf("scenario %d ran under a cancelled context", i)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestForEachErrorCancelsPending checks that one failure stops
// dispatching later scenarios (they observe the cancelled pool
// context).
func TestForEachErrorCancelsPending(t *testing.T) {
	var ran atomic.Int32
	err := ForEach(context.Background(), 64, Options{Workers: 1}, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return errors.New("early failure")
		}
		return nil
	})
	if err == nil {
		t.Fatal("want error")
	}
	if ran.Load() == 64 {
		t.Fatal("failure did not stop dispatch")
	}
}

func TestForEach(t *testing.T) {
	marks := make([]bool, 9)
	if err := ForEach(context.Background(), len(marks), Options{Workers: 3}, func(_ context.Context, i int) error {
		marks[i] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range marks {
		if !ok {
			t.Fatalf("scenario %d never ran", i)
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	err := ForEach(context.Background(), 0, Options{}, func(_ context.Context, i int) error {
		return errors.New("must not run")
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
}
