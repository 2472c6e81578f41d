package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardIndexedResults checks rule 2 for Shard: every index is
// visited exactly once and its result lands in its own slot, at any
// width and chunk size.
func TestShardIndexedResults(t *testing.T) {
	const n = 37
	for _, w := range []int{1, 2, 8} {
		for _, chunk := range []int{0, 1, 5} {
			var visits [n]atomic.Int32
			got := make([]int, n)
			err := Shard(context.Background(), n, chunk, Options{Workers: w}, func(_ context.Context, lo, hi int) error {
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
					got[i] = i * i
				}
				return nil
			})
			if err != nil {
				t.Fatalf("width %d chunk %d: %v", w, chunk, err)
			}
			for i, v := range got {
				if v != i*i || visits[i].Load() != 1 {
					t.Fatalf("width %d chunk %d: result[%d] = %d after %d visits", w, chunk, i, v, visits[i].Load())
				}
			}
		}
	}
}

// TestShardLowestIndexedError checks rule 3 for Shard: the reported
// failure is the lowest-indexed chunk's, even when a higher chunk fails
// first.
func TestShardLowestIndexedError(t *testing.T) {
	errBoom := errors.New("boom")
	for _, w := range []int{1, 2, 8} {
		err := Shard(context.Background(), 10, 1, Options{Workers: w}, func(_ context.Context, lo, _ int) error {
			switch lo {
			case 3:
				time.Sleep(5 * time.Millisecond) // chunk 7 fails first at width 8
				return fmt.Errorf("chunk %d: %w", lo, errBoom)
			case 7:
				return fmt.Errorf("chunk %d: %w", lo, errBoom)
			}
			return nil
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("width %d: err = %v, want boom", w, err)
		}
		if want := "runner: scenario 3:"; !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("width %d: err = %q, want prefix %q", w, err, want)
		}
	}
}

// TestShardPanic checks that a panicking chunk becomes a *PanicError
// carrying its chunk index.
func TestShardPanic(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		err := Shard(context.Background(), 8, 1, Options{Workers: w}, func(_ context.Context, lo, _ int) error {
			if lo == 2 {
				panic("kaboom")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Index != 2 || pe.Value != "kaboom" || len(pe.Stack) == 0 {
			t.Fatalf("width %d: err = %v, want PanicError at 2", w, err)
		}
	}
}

// TestShardCancellation checks that a cancelled context runs no chunk
// and is reported.
func TestShardCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 2, 8} {
		err := Shard(ctx, 16, 1, Options{Workers: w}, func(_ context.Context, lo, _ int) error {
			t.Errorf("width %d: chunk %d ran under a cancelled context", w, lo)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("width %d: err = %v, want context.Canceled", w, err)
		}
	}
}

// TestShardReusesHelpers checks that Shard parks its helpers instead of
// starting goroutines per call: a thousand calls of widths up to 8
// leave at most the 7 helpers the widest call needs beside its caller.
func TestShardReusesHelpers(t *testing.T) {
	const widest = 8
	before := runtime.NumGoroutine()
	var sum atomic.Int64
	for c := 0; c < 1000; c++ {
		w := 1 + c%widest
		if err := Shard(context.Background(), 64, 1, Options{Workers: w}, func(_ context.Context, lo, hi int) error {
			sum.Add(int64(hi - lo))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if sum.Load() != 1000*64 {
		t.Fatalf("visited %d indices, want %d", sum.Load(), 1000*64)
	}
	if after := runtime.NumGoroutine(); after > before+widest-1 {
		t.Fatalf("goroutines %d -> %d after 1000 calls, want at most %d more", before, after, widest-1)
	}
}
