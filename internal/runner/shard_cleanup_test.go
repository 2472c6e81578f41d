//go:build go1.24

package runner

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// TestShardHelpersDropLastJob checks that a parked helper keeps no
// reference to the job it last worked: a value only that job's fn
// captured is collected once Shard returns. (runtime.AddCleanup needs
// Go 1.24.)
func TestShardHelpersDropLastJob(t *testing.T) {
	collected := make(chan struct{})
	func() {
		captured := new([1024]byte)
		runtime.AddCleanup(captured, func(ch chan struct{}) { close(ch) }, collected)
		if err := Shard(context.Background(), 8, 1, Options{Workers: 8}, func(_ context.Context, lo, _ int) error {
			captured[lo] = 1
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}()
	for try := 0; try < 20; try++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the last job's captured value is still reachable after Shard returned")
}
