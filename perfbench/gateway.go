package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"aum"
)

const (
	gatewayWarp      = 100.0 // simulated seconds per wall second
	gatewayRatePerS  = 200.0 // streams per wall second: 2 simulated req/s
	gatewayMaxTokens = 32
	gatewaySetups    = 15 // gateways built per run for the set-up median
)

// newGateway builds a gateway over a 4-machine fleet and waits until
// it is ready, returning the time that took.
func newGateway(seed uint64, workers int) (*aum.Gateway, time.Duration, error) {
	plats := aum.Platforms()
	specs := make([]aum.MachineSpec, 4)
	for i := range specs {
		specs[i] = aum.MachineSpec{Plat: plats[i%len(plats)], Mgr: aum.NewExclusive()}
	}
	start := time.Now()
	g, err := aum.NewGateway(
		aum.WithGatewayFleet(aum.FleetConfig{Machines: specs, Seed: seed, Workers: workers}),
		aum.WithWarpFactor(gatewayWarp),
	)
	if err != nil {
		return nil, 0, err
	}
	for !g.Ready() {
		if time.Since(start) > 10*time.Second {
			g.Stop()
			return nil, 0, errors.New("gateway not ready after 10 s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return g, time.Since(start), nil
}

// sseEvent is one server-sent event and the wall instant it was
// flushed to the client.
type sseEvent struct {
	data    string
	flushed time.Time
}

// streamRecorder is an in-process http.ResponseWriter that timestamps
// every Flush, so a stream is timed without opening a socket.
type streamRecorder struct {
	header  http.Header
	status  int
	buf     bytes.Buffer
	events  []sseEvent
	pending time.Time // first Write since the last Flush
	spans   *spanLog
	parent  int
	request int
}

func (r *streamRecorder) Header() http.Header {
	if r.header == nil {
		r.header = http.Header{}
	}
	return r.header
}

func (r *streamRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *streamRecorder) Write(b []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	if r.pending.IsZero() {
		r.pending = time.Now()
	}
	return r.buf.Write(b)
}

// Flush splits what was written since the last flush into SSE events
// stamped with the flush instant.
func (r *streamRecorder) Flush() {
	now := time.Now()
	for {
		s := r.buf.String()
		i := strings.Index(s, "\n\n")
		if i < 0 {
			break
		}
		r.events = append(r.events, sseEvent{data: strings.TrimPrefix(s[:i], "data: "), flushed: now})
		r.buf.Next(i + 2)
	}
	if !r.pending.IsZero() {
		r.spans.add("chunk", r.parent, r.request, r.pending, now)
		r.pending = time.Time{}
	}
}

type chunkJSON struct {
	Choices []struct {
		Delta struct {
			Role    string `json:"role"`
			Content string `json:"content"`
		} `json:"delta"`
		FinishReason *string `json:"finish_reason"`
	} `json:"choices"`
}

// checkStream verifies an SSE completion follows role -> content... ->
// finish_reason -> [DONE] and returns the instant the first content
// chunk was flushed and the instant [DONE] was.
func checkStream(evs []sseEvent, maxTokens int) (firstContent, done time.Time, err error) {
	state := 0 // 0 want role, 1 want content, 2 content or finish, 3 want [DONE], 4 done
	tokens := 0
	for _, ev := range evs {
		if state == 4 {
			return firstContent, done, errors.New("data after [DONE]")
		}
		if ev.data == "[DONE]" {
			if state != 3 {
				return firstContent, done, fmt.Errorf("[DONE] before finish_reason (state %d)", state)
			}
			state, done = 4, ev.flushed
			continue
		}
		var c chunkJSON
		if err := json.Unmarshal([]byte(ev.data), &c); err != nil || len(c.Choices) != 1 {
			return firstContent, done, fmt.Errorf("bad chunk %q", ev.data)
		}
		ch := c.Choices[0]
		switch {
		case state == 0 && ch.Delta.Role == "assistant" && ch.Delta.Content == "" && ch.FinishReason == nil:
			state = 1
		case (state == 1 || state == 2) && ch.Delta.Content != "" && ch.FinishReason == nil:
			if state == 1 {
				firstContent = ev.flushed
			}
			state = 2
			tokens++
		case state == 2 && ch.FinishReason != nil:
			state = 3
		default:
			return firstContent, done, fmt.Errorf("chunk out of order in state %d: %q", state, ev.data)
		}
	}
	if state != 4 {
		return firstContent, done, fmt.Errorf("stream ended in state %d", state)
	}
	if tokens > maxTokens {
		return firstContent, done, fmt.Errorf("%d tokens exceed max_tokens %d", tokens, maxTokens)
	}
	return firstContent, done, nil
}

// ttftOverheadMs is how much later than the emulated schedule the first
// token reached the client: wall time from the request's due instant
// to its first content chunk, minus the simulated TTFT scaled by warp.
func ttftOverheadMs(due, firstContent time.Time, simTTFT, warp float64) float64 {
	return float64(firstContent.Sub(due).Nanoseconds())/1e6 - simTTFT/warp*1e3
}

// latenessMs is how late the generator sent a request after its due
// instant.
func latenessMs(due, sent time.Time) float64 {
	return float64(sent.Sub(due).Nanoseconds()) / 1e6
}

// streamSample is one completed stream's timing.
type streamSample struct {
	overheadMs float64 // TTFT overhead
	totalS     float64 // due instant to [DONE]
	dueS       float64 // due instant, seconds from the phase start
}

// gatewayPhase is one open-loop phase's measurements.
type gatewayPhase struct {
	samples  []streamSample
	steal    []float64 // stolen share of each stealWindow of the phase
	lateMs   []float64
	streams  int
	cpu      time.Duration
	simRate  float64 // simulated seconds per wall second
	snapshot aum.TelemetrySnapshot
}

// runOpenLoop sends the seeded Poisson schedule of streaming chat
// completions into the gateway's handler for dur, then stops the
// gateway and checks request conservation.
func runOpenLoop(c *runCtx, g *aum.Gateway, seed uint64, dur time.Duration, spans *spanLog) (gatewayPhase, error) {
	sched := poissonSchedule(seed, gatewayRatePerS, dur.Seconds(), 32, 1024)
	h := g.Handler()
	var (
		mu sync.Mutex
		ph gatewayPhase
		wg sync.WaitGroup
	)
	ph.lateMs = make([]float64, 0, len(sched))
	serve := func(id int, a arrival, due time.Time) {
		defer wg.Done()
		err := serveOne(h, id, a, due, spans, func(s streamSample) {
			s.dueS = a.DueS
			mu.Lock()
			ph.samples = append(ph.samples, s)
			mu.Unlock()
		})
		mu.Lock()
		c.out.op(err)
		mu.Unlock()
	}
	steal := startStealWindows(stealWindow)
	sim0, cpu0, start := g.Now(), cpuTime(), time.Now()
	for i, a := range sched {
		due := start.Add(time.Duration(a.DueS * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		ph.lateMs = append(ph.lateMs, latenessMs(due, time.Now()))
		wg.Add(1)
		go serve(i+1, a, due)
	}
	wg.Wait()
	ph.steal = steal.end()
	wall := time.Since(start)
	ph.simRate = (g.Now() - sim0) / wall.Seconds()
	ph.cpu = cpuTime() - cpu0
	ph.streams = len(sched)
	ph.snapshot = g.Registry().Snapshot()
	_, err := g.Stop()
	if err != nil {
		return ph, fmt.Errorf("stop gateway: %w", err)
	}
	rc := readRequestCounts(g.Registry().Snapshot())
	if !rc.conserved() || rc.inFlight() != 0 {
		c.out.fail(fmt.Errorf("gateway request conservation broken: %+v", rc))
	}
	return ph, nil
}

// serveOne sends one streaming completion through the handler and
// checks the response.
func serveOne(h http.Handler, id int, a arrival, due time.Time, spans *spanLog, record func(streamSample)) error {
	body, err := json.Marshal(map[string]any{
		"messages":   []map[string]string{{"role": "user", "content": strings.Repeat("word ", a.PromptTokens*4/5)}},
		"stream":     true,
		"max_tokens": gatewayMaxTokens,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "/v1/chat/completions", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	sp := spans.begin("ServeHTTP", 0, id)
	rec := &streamRecorder{spans: spans, parent: sp, request: id}
	h.ServeHTTP(rec, req)
	rec.Flush()
	spans.end(sp)
	if rec.status != http.StatusOK {
		return fmt.Errorf("request %d: status %d: %s", id, rec.status, strings.TrimSpace(rec.buf.String()))
	}
	first, done, err := checkStream(rec.events, gatewayMaxTokens)
	if err != nil {
		return fmt.Errorf("request %d: %w", id, err)
	}
	simTTFT, err := strconv.ParseFloat(rec.Header().Get(aum.HeaderSimulatedTTFT), 64)
	if err != nil {
		return fmt.Errorf("request %d: simulated TTFT header: %w", id, err)
	}
	record(streamSample{
		overheadMs: ttftOverheadMs(due, first, simTTFT, gatewayWarp),
		totalS:     done.Sub(due).Seconds(),
	})
	return nil
}

// buildGateways times gatewaySetups gateway builds, stops all but the
// last, and returns it with the median set-up time.
func buildGateways(c *runCtx) (*aum.Gateway, []float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		g, d, err := newGateway(sessionSeed(c.seed, i), c.workers)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == gatewaySetups-1 {
			return g, setups, nil
		}
		if _, err := g.Stop(); err != nil {
			return nil, nil, err
		}
	}
}

func overheads(ss []streamSample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.overheadMs
	}
	return out
}

// stealWindow is how finely the open-loop phase is cut to see when the
// hypervisor stole CPU. Steal comes in bursts of a few seconds, and a
// burst of 20% steal raises the TTFT overhead of the streams it
// overlaps by about a third.
const stealWindow = time.Second

// leastStolen returns the overheads of the streams due in the windows
// whose stolen share is at most the median window's: at least half the
// windows, and all of them when the host steals nothing.
func leastStolen(ss []streamSample, steal []float64) []float64 {
	if len(steal) == 0 {
		return overheads(ss)
	}
	cut := median(steal)
	var out []float64
	for _, s := range ss {
		k := min(int(s.dueS/stealWindow.Seconds()), len(steal)-1)
		if steal[k] <= cut {
			out = append(out, s.overheadMs)
		}
	}
	return out
}

func runGateway(c *runCtx) error {
	if c.traced {
		return traceGateway(c)
	}
	g, setups, err := buildGateways(c)
	if err != nil {
		return err
	}
	c.out.setN("setup_s", median(setups), len(setups))
	heap := startHeapSampler(5 * time.Millisecond)
	ph, err := runOpenLoop(c, g, c.seed, c.budget, nil)
	peak := heap.stopMB()
	if err != nil {
		return err
	}
	totals := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		totals[i] = s.totalS
	}
	c.out.setN("wall_s", median(totals), len(totals))
	c.out.setN("sim_s_per_wall_s", ph.simRate, 1)
	c.out.set("peak_heap_mb", peak)
	// The streams of the least-stolen windows measure the gateway
	// rather than the hypervisor.
	calm := leastStolen(ph.samples, ph.steal)
	fmt.Printf("ttft overhead p50 %.3f ms over all %d streams, %.3f ms over the %d of the least-stolen windows\n",
		median(overheads(ph.samples)), len(ph.samples), median(calm), len(calm))
	c.out.setN("ttft_overhead_ms_p50", median(calm), len(calm))
	c.out.setN("cpu_ms_per_stream", float64(ph.cpu.Nanoseconds())/1e6/float64(ph.streams), ph.streams)
	return nil
}

// traceGateway is the traced run: an untraced baseline half, then a
// traced half with a span per ServeHTTP and per flushed chunk, the
// gateway's telemetry series, and the reqtrace hot-path row.
func traceGateway(c *runCtx) error {
	half := c.budget / 2
	g, _, err := newGateway(sessionSeed(c.seed, 0), c.workers)
	if err != nil {
		return err
	}
	base, err := runOpenLoop(c, g, c.seed, half, nil)
	if err != nil {
		return err
	}
	g, _, err = newGateway(sessionSeed(c.seed, 1), c.workers)
	if err != nil {
		return err
	}
	mem := startMemDelta()
	ph, err := runOpenLoop(c, g, c.seed+1, half, c.spans)
	if err != nil {
		return err
	}
	allocMB, gcs := mem.stop()
	perK := 1000 / float64(ph.streams)
	c.out.set("runtime.alloc_mb", allocMB*perK)
	c.out.set("runtime.gc_cycles", gcs*perK)
	cpuPer := func(p gatewayPhase) float64 { return p.cpu.Seconds() / float64(p.streams) }
	c.out.set("bench.trace_overhead_share", cpuPer(ph)/cpuPer(base)-1)

	tail, ok := percentileWithCount(overheads(ph.samples), 99, 10)
	if !ok {
		fmt.Printf("gateway.ttft_overhead_ms_p99: only %d of %d samples beyond p99\n", tail.Beyond, tail.Samples)
	}
	c.out.setN("gateway.ttft_overhead_ms_p99", tail.Value, tail.Samples)
	late, _ := percentileWithCount(ph.lateMs, 99, 10)
	c.out.setN("gateway.generator_late_ms_p99", late.Value, late.Samples)
	s := ph.snapshot
	setLayerCounters(c.out, s)
	warp, _ := s.GaugeValue("aum_gateway_warp_ratio")
	lag, _ := s.GaugeValue("aum_gateway_paced_release_lag_seconds")
	c.out.set("gateway.warp_ratio", warp)
	c.out.set("gateway.release_lag_ms", lag*1e3)
	barriers := g.Now() / 0.05
	c.out.set("cluster.barriers", barriers)
	c.out.set("cluster.elided_share", share(counterSum(s, "aum_cluster_barriers_elided_total"), barriers))
	hotRows(c.out, "machine_step", "machine_stepn_replay", "reqtrace_token")
	return nil
}
