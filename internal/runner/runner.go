// Package runner executes independent simulation scenarios across a
// worker pool with a determinism contract: the result of a run is a
// pure function of its inputs, never of the worker count, the
// scheduling order, or which worker picked up which scenario.
//
// The contract rests on three rules (see DESIGN.md §6):
//
//  1. Seeds are explicit. The pool hands scenario i only its index;
//     callers derive its randomness from their own root seed and i, so
//     completion order cannot shift anyone's random stream.
//  2. Results are collected by index. fn writes scenario i's result
//     into slot i of state the caller owns, regardless of completion
//     order.
//  3. Errors are ordered. When several scenarios fail, the error of
//     the lowest-indexed one is returned, so the reported failure does
//     not depend on scheduling races.
//
// Panics inside a scenario are isolated: they are converted into
// errors carrying the scenario index and stack, and do not take down
// sibling scenarios or the caller.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"aum/internal/telemetry"
)

// Options configure a pool invocation.
type Options struct {
	// Workers is the fan-out width; <= 0 uses GOMAXPROCS.
	Workers int
	// Telemetry, when set, counts started scenarios
	// (aum_runner_scenarios_total) and panics (aum_runner_panics_total).
	Telemetry *telemetry.Registry
}

func (o Options) workers(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is a scenario panic converted into an ordinary error.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("runner: scenario %d panicked: %v\n%s", e.Index, e.Value, e.Stack)
}

// ForEach runs fn(ctx, i) for every i in [0, n) across the pool.
//
// On error or panic the lowest-indexed failure is returned, the shared
// context passed to still-pending scenarios is cancelled, and
// scenarios that were already running are allowed to finish. A nil
// error guarantees fn ran to completion for every index.
func ForEach(ctx context.Context, n int, o Options, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// minFail is the lowest index that failed for a reason of its own.
	// After an internal failure cancels the pool, scenarios BELOW that
	// index still execute — they would have run to completion at width
	// 1 — so which scenario is reported cannot depend on which worker
	// observed the cancellation first (rule 3). Scenarios above it, and
	// everything once the parent context is cancelled, are skipped.
	var minFail atomic.Int64
	minFail.Store(int64(n))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := o.workers(n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil && (parent.Err() != nil || int64(i) > minFail.Load()) {
					errs[i] = err
					continue
				}
				errs[i] = run(ctx, i, o, fn)
				if errs[i] == nil {
					continue
				}
				if !errors.Is(errs[i], context.Canceled) && !errors.Is(errs[i], context.DeadlineExceeded) {
					for {
						m := minFail.Load()
						if int64(i) >= m || minFail.CompareAndSwap(m, int64(i)) {
							break
						}
					}
				}
				cancel()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()

	// Scenarios below the lowest internal failure always execute, so
	// the lowest-indexed non-cancellation error is the same under any
	// worker count. Cancellation errors only sit above it (skipped or
	// aborted siblings) — report them only when nothing failed for a
	// reason of its own (i.e. the parent context was cancelled).
	var cancelled error
	cancelledAt := -1
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("runner: scenario %d: %w", i, err)
		}
		if cancelled == nil {
			cancelled, cancelledAt = err, i
		}
	}
	if cancelled != nil {
		return fmt.Errorf("runner: scenario %d: %w", cancelledAt, cancelled)
	}
	return nil
}

// run executes one scenario with panic isolation. Skipping on
// cancellation is the worker loop's decision, not run's: a scenario
// below the lowest failing index must execute even on a dead context.
func run(ctx context.Context, i int, o Options, fn func(context.Context, int) error) (err error) {
	o.Telemetry.Counter("aum_runner_scenarios_total").Inc()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
			o.Telemetry.Counter("aum_runner_panics_total").Inc()
		}
	}()
	return fn(ctx, i)
}

// Shard partitions [0, n) into contiguous chunks and runs
// fn(ctx, lo, hi) for each across the pool — the bulk-iteration
// counterpart to ForEach for callers whose per-index work is too small to
// pay a channel round-trip each (a fleet stepping 100k machines per
// barrier). Chunks are fixed-size, so which indices share a chunk — and
// hence every per-chunk computation — is independent of the worker
// width; fn must touch only state owned by indices in [lo, hi) for the
// determinism contract to hold. chunk <= 0 picks a size that gives
// every worker about four chunks.
//
// Unlike ForEach, Shard starts no goroutines per call: the caller works
// chunks itself beside parked helpers it recruits (DESIGN.md §6), and
// chunks are claimed in index order through an atomic counter. Errors,
// panics and cancellation follow ForEach, with chunk indices as
// scenario indices.
func Shard(ctx context.Context, n, chunk int, o Options, fn func(ctx context.Context, lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	if chunk <= 0 {
		chunk = n / (4 * o.workers(n))
		if chunk < 1 {
			chunk = 1
		}
	}
	shards := (n + chunk - 1) / chunk
	j := &shardJob{parent: ctx, n: n, chunk: chunk, shards: shards, o: o, fn: fn,
		failAt: shards, cancelledAt: shards}
	j.ctx, j.cancel = context.WithCancel(ctx)
	defer j.cancel()
	if w := o.workers(shards); w > 1 {
		j.wg.Add(w - 1)
		recruit(j, w-1)
	}
	j.work()
	j.wg.Wait()
	if j.failAt < shards {
		return fmt.Errorf("runner: scenario %d: %w", j.failAt, j.failErr)
	}
	if j.cancelledAt < shards {
		return fmt.Errorf("runner: scenario %d: %w", j.cancelledAt, j.cancelledErr)
	}
	return nil
}

// shardJob is one Shard call, shared by the caller and its helpers.
type shardJob struct {
	parent, ctx context.Context
	cancel      context.CancelFunc
	n, chunk    int
	shards      int
	o           Options
	fn          func(ctx context.Context, lo, hi int) error

	next atomic.Int64 // the next chunk to claim
	wg   sync.WaitGroup

	// The lowest-indexed failure of each kind, under mu; an index of
	// shards means none. failAt is ForEach's minFail.
	mu                    sync.Mutex
	failAt, cancelledAt   int
	failErr, cancelledErr error
}

// work claims chunks in index order until none is left. A chunk that
// fails for a reason of its own cancels the job's context; claims after
// it skip, as ForEach's workers skip indices dispatched after a failure.
func (j *shardJob) work() {
	for {
		i := int(j.next.Add(1) - 1)
		if i >= j.shards {
			return
		}
		if err := j.ctx.Err(); err != nil && (j.parent.Err() != nil || i > j.lowestFail()) {
			j.fail(i, err)
			continue
		}
		if err := run(j.ctx, i, j.o, j.chunkAt); err != nil {
			j.fail(i, err)
			j.cancel()
		}
	}
}

// chunkAt runs fn over chunk i.
func (j *shardJob) chunkAt(ctx context.Context, i int) error {
	lo := i * j.chunk
	return j.fn(ctx, lo, min(lo+j.chunk, j.n))
}

// fail records chunk i's error if it is the lowest of its kind. A
// failure is recorded before work cancels the context, so a claim that
// sees the cancellation also sees the failure's index.
func (j *shardJob) fail(i int, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		if i < j.cancelledAt {
			j.cancelledAt, j.cancelledErr = i, err
		}
	} else if i < j.failAt {
		j.failAt, j.failErr = i, err
	}
}

// lowestFail is the lowest chunk that failed for a reason of its own,
// or shards if none has.
func (j *shardJob) lowestFail() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failAt
}

// idle holds the parked Shard helpers, each waiting on its own channel
// for the next job. Like a sync.Pool it is shared by every caller in
// the process; helpers never exit, and their number is the peak count
// ever recruited at once.
var idle struct {
	sync.Mutex
	helpers []chan *shardJob
}

// recruit hands j to k helpers, parked ones first, and starts a new
// helper only for each one short.
func recruit(j *shardJob, k int) {
	for ; k > 0; k-- {
		jobs := unpark()
		if jobs == nil {
			jobs = make(chan *shardJob, 1)
			go helper(jobs)
		}
		jobs <- j // buffered and empty: a parked helper holds no job
	}
}

// unpark takes a parked helper's channel, or nil when none is idle.
func unpark() chan *shardJob {
	idle.Lock()
	defer idle.Unlock()
	last := len(idle.helpers) - 1
	if last < 0 {
		return nil
	}
	jobs := idle.helpers[last]
	idle.helpers[last] = nil
	idle.helpers = idle.helpers[:last]
	return jobs
}

// helper works each job it is handed, then parks. It parks before it
// reports done, so once Shard returns every helper it recruited can be
// recruited again, and sequential calls never need more helpers than
// the widest one. A parked helper keeps no reference to its last job.
func helper(jobs chan *shardJob) {
	for j := range jobs {
		j.work()
		idle.Lock()
		idle.helpers = append(idle.helpers, jobs)
		idle.Unlock()
		j.wg.Done()
	}
}
