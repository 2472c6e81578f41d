package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aum"
)

// heapSampler samples the live heap while it runs.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

// liveHeap reads the heap the last GC marked live, without stopping the
// world. Unlike heap-in-use it does not depend on how much garbage
// waits for the next cycle.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			h.samples = append(h.samples, float64(liveHeap())/(1<<20))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopMB stops the sampler, waits for it to exit, and returns the
// heap's high-water mark in MB: the 95th percentile of the samples,
// which unlike their maximum repeats across runs.
func (h *heapSampler) stopMB() float64 {
	close(h.stop)
	<-h.done
	return quantile(h.samples, 0.95)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the host's aggregate CPU counters from /proc/stat:
// all ticks, and the ticks the hypervisor stole from this machine.
func cpuTicks() (total, steal float64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the share of CPU time the hypervisor stole over
// an interval, a host fact that explains run-to-run noise.
type stealMeter struct{ total, steal float64 }

func startSteal() stealMeter {
	t, s, _ := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) share() float64 {
	t, s, ok := cpuTicks()
	if !ok || t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// stealWindows samples the share of CPU time the hypervisor stole in
// each consecutive window of an interval.
type stealWindows struct {
	stop, done chan struct{}
	shares     []float64
}

func startStealWindows(every time.Duration) *stealWindows {
	w := &stealWindows{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(every)
		defer t.Stop()
		m := startSteal()
		for {
			select {
			case <-w.stop:
				w.shares = append(w.shares, m.share())
				return
			case <-t.C:
				w.shares = append(w.shares, m.share())
				m = startSteal()
			}
		}
	}()
	return w
}

// end stops the sampler and returns each window's stolen share; the
// last window is the partial one the interval ended in.
func (w *stealWindows) end() []float64 {
	close(w.stop)
	<-w.done
	return w.shares
}

// memDelta measures allocation volume and GC cycles over an interval.
type memDelta struct{ m0 runtime.MemStats }

func startMemDelta() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.m0)
	return d
}

// stop returns MB allocated and GC cycles completed since start.
func (d *memDelta) stop() (allocMB float64, gcCycles float64) {
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-d.m0.TotalAlloc) / (1 << 20), float64(m1.NumGC - d.m0.NumGC)
}

// seriesOf reports whether a snapshot series is the named metric in
// any scope: child scopes carry a {scope="..."} label in the name.
func seriesOf(series, name string) bool {
	return series == name || strings.HasPrefix(series, name+"{")
}

// counterSum adds a counter over every scope of a snapshot (a fleet
// registers one child scope per machine).
func counterSum(s aum.TelemetrySnapshot, name string) float64 {
	t := 0.0
	for _, c := range s.Counters {
		if seriesOf(c.Name, name) {
			t += float64(c.Value)
		}
	}
	return t
}

// gaugeSum adds a gauge over every scope of a snapshot.
func gaugeSum(s aum.TelemetrySnapshot, name string) float64 {
	t := 0.0
	for _, g := range s.Gauges {
		if seriesOf(g.Name, name) {
			t += g.Value
		}
	}
	return t
}

// histMean is a histogram's mean over every scope, 0 when empty.
func histMean(s aum.TelemetrySnapshot, name string) float64 {
	var sum float64
	var n uint64
	for _, h := range s.Histograms {
		if seriesOf(h.Name, name) {
			sum += h.Sum
			n += h.Count
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// requestCounts are the serving counters a conservation check reads.
type requestCounts struct {
	routed, submitted, finished, rejected, timedOut, dropped float64
}

func readRequestCounts(s aum.TelemetrySnapshot) requestCounts {
	return requestCounts{
		routed:    counterSum(s, "aum_fleet_requests_routed_total"),
		submitted: counterSum(s, "aum_serve_submitted_total"),
		finished:  counterSum(s, "aum_serve_finished_total"),
		rejected:  counterSum(s, "aum_serve_rejected_total"),
		timedOut:  counterSum(s, "aum_serve_timed_out_total"),
		dropped:   counterSum(s, "aum_serve_backlog_dropped_total"),
	}
}

// inFlight is what conservation leaves unresolved: submitted requests
// that neither finished, timed out, nor were dropped from the backlog.
func (c requestCounts) inFlight() float64 {
	return c.submitted - c.finished - c.timedOut - c.dropped
}

// conserved checks that every routed request was either submitted to
// an engine or shed by admission, and that no engine resolved more
// requests than it was given.
func (c requestCounts) conserved() bool {
	return c.routed == c.submitted+c.rejected && c.inFlight() >= 0
}

// setLayerCounters reports the serve, machine and telemetry counters
// of a snapshot as per-layer metrics.
func setLayerCounters(o *output, s aum.TelemetrySnapshot) {
	rc := readRequestCounts(s)
	o.set("serve.submitted", rc.submitted)
	o.set("serve.finished", rc.finished)
	o.set("serve.rejected", rc.rejected)
	o.set("serve.timed_out", rc.timedOut)
	o.set("serve.queue_wait_s_mean", histMean(s, "aum_serve_queue_wait_seconds"))
	o.set("serve.decode_batch_mean", histMean(s, "aum_serve_decode_batch_occupancy"))
	o.set("cluster.routed", rc.routed)
	o.set("cluster.barriers_elided", counterSum(s, "aum_cluster_barriers_elided_total"))
	steps := counterSum(s, "aum_machine_steps_total")
	ff := counterSum(s, "aum_machine_ff_steps_total")
	o.set("machine.steps", steps)
	o.set("machine.ff_steps", ff)
	o.set("machine.ff_share", share(ff, steps))
	o.set("core.ctrl_ticks", counterSum(s, "aum_ctrl_ticks_total"))
	o.set("core.division_switches", counterSum(s, "aum_ctrl_division_switches_total"))
	o.set("runner.scenarios", counterSum(s, "aum_runner_scenarios_total"))
	o.set("reqtrace.completed", gaugeSum(s, "aum_reqtrace_completed"))
	o.set("gateway.tokens_released", counterSum(s, "aum_gateway_tokens_released_total"))
	o.set("telemetry.events_dropped",
		counterSum(s, "aum_telemetry_events_dropped_total")+float64(s.DroppedEvents))
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// hotRows runs aum.MeasureHotPaths and reports the rows whose layer
// the workload runs through; rows of untouched layers stay 0.
func hotRows(o *output, rows ...string) {
	want := map[string]bool{}
	for _, r := range rows {
		want[r] = true
	}
	names := map[string]string{
		"machine_step":         "machine.step",
		"machine_stepn_replay": "machine.stepn_replay",
		"fleet_failover":       "cluster.failover",
		"reqtrace_token":       "reqtrace.token",
	}
	for _, hp := range aum.MeasureHotPaths() {
		if want[hp.Name] {
			o.set(names[hp.Name]+"_ns", hp.NsPerOp)
			o.set(names[hp.Name]+"_allocs", hp.AllocsPerOp)
		}
	}
}

// measureOnce times one call and counts its heap allocations.
func measureOnce(f func() error) (time.Duration, float64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return wall, float64(m1.Mallocs - m0.Mallocs), err
}

// hostFacts stamps a result with the machine and build it came from.
func hostFacts(seed uint64) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       seed,
		"commit":     gitCommit("."),
	}
}

// gitCommit reads HEAD from a .git directory without running git; it
// returns "unknown" outside a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if !strings.HasPrefix(ref, "ref: ") {
		return ref
	}
	ref = strings.TrimPrefix(ref, "ref: ")
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[1] == ref {
			return f[0]
		}
	}
	return "unknown"
}
