package main

import (
	"fmt"
	"reflect"
	"time"

	"aum"
)

// fleetShape is one fleet workload: the machines, their classes, and
// the simulated span each session covers.
type fleetShape struct {
	machines int
	classes  []string // scenario classes, assigned round-robin
	ratePerS float64  // fleet-wide offered rate; 0 = the classes' default rates
	spanS    float64  // simulated seconds per session
}

// fleetBusy steps every machine in every barrier: three classes at
// their default rates, so no barrier is elided.
var fleetBusy = fleetShape{machines: 64, classes: []string{"cb", "cc", "sm"}, spanS: 10}

// fleetSparse leaves nearly every machine idle in nearly every barrier.
var fleetSparse = fleetShape{machines: 1024, classes: []string{"cb"}, ratePerS: 3, spanS: 5}

func runFleetBusy(c *runCtx) error   { return runFleet(c, fleetBusy) }
func runFleetSparse(c *runCtx) error { return runFleet(c, fleetSparse) }

// config builds the session's fleet: GenA/GenB/GenC and the scenario
// classes in round-robin (offset so every platform meets every class),
// AU-exclusive managers and AUV-aware balancing. tel may be nil.
func (f fleetShape) config(seed uint64, workers int, tel *aum.TelemetryRegistry) (aum.FleetConfig, error) {
	plats := aum.Platforms()
	scens := make([]aum.Scenario, len(f.classes))
	for i, name := range f.classes {
		s, err := aum.ScenarioByName(name)
		if err != nil {
			return aum.FleetConfig{}, err
		}
		scens[i] = s
	}
	specs := make([]aum.MachineSpec, f.machines)
	for i := range specs {
		scen := scens[i%len(scens)]
		specs[i] = aum.MachineSpec{
			Plat: plats[(i/len(scens))%len(plats)],
			Mgr:  aum.NewExclusive(),
			Scen: &scen,
		}
	}
	return aum.FleetConfig{
		Machines:  specs,
		Model:     aum.Llama2_7B(),
		Scen:      scens[0],
		Policy:    aum.AUVAware,
		HorizonS:  f.spanS,
		Seed:      seed,
		RatePerS:  f.ratePerS,
		Workers:   workers,
		Telemetry: tel,
	}, nil
}

// fleetSession is one session's measurements.
type fleetSession struct {
	setup  time.Duration
	wall   time.Duration // first Step through Finish
	finish time.Duration
	cpu    time.Duration
	steps  []float64 // per-Step host ms
	res    aum.FleetResult
	snap   aum.TelemetrySnapshot // empty without telemetry
}

// runSession builds one fleet session and steps it through the shape's
// span. Step and Finish are counted as operations. With telemetry
// attached, a broken request-conservation sum fails the Finish.
func (f fleetShape) runSession(c *runCtx, seed uint64, spans *spanLog, withTel bool) (fleetSession, error) {
	var tel *aum.TelemetryRegistry
	if withTel {
		tel = aum.NewTelemetryRegistry()
	}
	cfg, err := f.config(seed, c.workers, tel)
	if err != nil {
		return fleetSession{}, err
	}
	var fs fleetSession
	root := spans.begin("session", 0, 0)
	defer spans.end(root)
	sp := spans.begin("NewFleetSession", root, 0)
	t0 := time.Now()
	sess, err := aum.NewFleetSession(cfg)
	fs.setup = time.Since(t0)
	spans.end(sp)
	if err != nil {
		return fs, fmt.Errorf("build fleet: %w", err)
	}
	barriers := int(f.spanS/sess.Config().BarrierS + 0.5)
	fs.steps = make([]float64, 0, barriers)
	cpu0, start := cpuTime(), time.Now()
	for i := 0; i < barriers; i++ {
		sp := spans.begin("Step", root, 0)
		s0 := time.Now()
		err := sess.Step()
		fs.steps = append(fs.steps, float64(time.Since(s0).Nanoseconds())/1e6)
		spans.end(sp)
		c.out.op(err)
		if err != nil {
			break
		}
	}
	sp = spans.begin("Finish", root, 0)
	f0 := time.Now()
	fs.res, err = sess.Finish()
	fs.finish = time.Since(f0)
	spans.end(sp)
	fs.wall, fs.cpu = time.Since(start), cpuTime()-cpu0
	c.out.op(err)
	if withTel {
		fs.snap = tel.Snapshot()
		if rc := readRequestCounts(fs.snap); err == nil && !rc.conserved() {
			c.out.fail(fmt.Errorf("request conservation broken: %+v", rc))
		}
	}
	return fs, nil
}

// sessionSeed derives the i-th session's seed from the run's seed.
func sessionSeed(seed uint64, i int) uint64 {
	r := splitmix64{state: seed*0x9e3779b97f4a7c15 + uint64(i)}
	return r.next()
}

// runSessions repeats sessions for the budget.
func (f fleetShape) runSessions(c *runCtx, budget time.Duration, spans *spanLog, withTel bool) ([]fleetSession, error) {
	var out []fleetSession
	_, err := timedRepeat(budget, func(i int) error {
		fs, err := f.runSession(c, sessionSeed(c.seed, i), spans, withTel)
		out = append(out, fs)
		return err
	})
	return out, err
}

// fleetSetups is how many extra fleets each untraced run builds and
// discards before the timed phase. The set-up median also takes in the
// build of every timed session, spread over the run.
const fleetSetups = 31

func runFleet(c *runCtx, f fleetShape) error {
	if c.traced {
		return traceFleet(c, f)
	}
	setups := make([]float64, fleetSetups)
	for i := range setups {
		cfg, err := f.config(sessionSeed(c.seed, i), c.workers, nil)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := aum.NewFleetSession(cfg); err != nil {
			return fmt.Errorf("build fleet: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}

	heap := startHeapSampler(5 * time.Millisecond)
	sessions, err := f.runSessions(c, c.budget-c.budget/recheckShare, nil, false)
	peak := heap.stopMB()
	if err != nil {
		return err
	}
	if err := f.recheck(c, sessions); err != nil {
		return err
	}
	var steps []float64
	var cpu time.Duration
	for _, s := range sessions {
		setups = append(setups, s.setup.Seconds())
		steps = append(steps, s.steps...)
		cpu += s.cpu
	}
	// wall_s and sim_s_per_wall_s are one measurement seen two ways: the
	// typical session's host seconds, and the simulated span over it.
	wall := typicalSessionWall(sessions)
	n := len(sessions)
	c.out.setN("setup_s", median(setups), len(setups))
	c.out.setN("wall_s", wall, n)
	c.out.setN("sim_s_per_wall_s", f.spanS/wall, n)
	c.out.set("peak_heap_mb", peak)
	c.out.setN("ttft_overhead_ms_p50", median(steps), len(steps))
	c.out.setN("cpu_ms_per_stream", float64(cpu.Nanoseconds())/1e6/float64(len(steps)), len(steps))
	return nil
}

// recheckShare is the part of the run's budget, one in this many, kept
// back from the timed phase to re-run timed sessions and check their
// output.
const recheckShare = 8

// recheck checks the output of a spread of the timed sessions, which
// run bare as RunFleet does by default. Outside the timed phase it
// re-runs the first and the last, and as many evenly spaced ones
// between as fit in its share of the budget, each with a telemetry
// registry. Each must give the identical result and conserve requests.
func (f fleetShape) recheck(c *runCtx, timed []fleetSession) error {
	n := len(timed)
	k := min(n, max(2, int(c.budget/recheckShare/f.sessionCost(timed))))
	for j := 0; j < k; j++ {
		i := 0
		if k > 1 {
			i = j * (n - 1) / (k - 1)
		}
		check, err := f.runSession(c, sessionSeed(c.seed, i), nil, true)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(check.res, timed[i].res) {
			c.out.fail(fmt.Errorf("session %d: fleet result changed when re-run with telemetry", i))
		}
	}
	return nil
}

// typicalSessionWall is a session's host seconds from first Step
// through Finish: the sum over barriers of each Step's median across
// sessions, plus the median Finish.
func typicalSessionWall(ss []fleetSession) float64 {
	steps := make([][]float64, len(ss))
	finishes := make([]float64, len(ss))
	for i, s := range ss {
		steps[i] = s.steps
		finishes[i] = s.finish.Seconds()
	}
	return sum(medians(steps))/1e3 + median(finishes)
}

// traceFleet is the traced run: an untraced baseline quarter, then
// sessions with a span around every facade call, then one more traced
// session with a telemetry registry whose counters give the layer
// counts. Step percentiles come from the span-only sessions, so the
// registry's own cost does not enter them.
func traceFleet(c *runCtx, f fleetShape) error {
	base, err := f.runSessions(c, c.budget/4, nil, false)
	if err != nil {
		return err
	}
	mem := startMemDelta()
	traced, err := f.runSessions(c, c.budget*3/4-f.sessionCost(base), c.spans, false)
	if err != nil {
		return err
	}
	allocMB, gcs := mem.stop()
	n := float64(len(traced))
	c.out.set("runtime.alloc_mb", allocMB/n)
	c.out.set("runtime.gc_cycles", gcs/n)
	wallOf := func(ss []fleetSession) []float64 {
		var w []float64
		for _, s := range ss {
			w = append(w, s.wall.Seconds())
		}
		return w
	}
	c.out.set("bench.trace_overhead_share", median(wallOf(traced))/median(wallOf(base))-1)

	var steps, setups []float64
	for _, s := range traced {
		steps = append(steps, s.steps...)
		setups = append(setups, float64(s.setup.Nanoseconds())/1e6/float64(f.machines))
	}
	c.out.setN("cluster.step_ms_p50", median(steps), len(steps))
	p99, ok := percentileWithCount(steps, 99, 10)
	if !ok {
		fmt.Printf("cluster.step_ms_p99: only %d of %d samples beyond p99\n", p99.Beyond, p99.Samples)
	}
	c.out.setN("cluster.step_ms_p99", p99.Value, p99.Samples)
	c.out.setN("cluster.setup_ms_per_machine", median(setups), len(setups))

	counted, err := f.runSession(c, sessionSeed(c.seed, len(traced)), c.spans, true)
	if err != nil {
		return err
	}
	setLayerCounters(c.out, counted.snap)
	barriers := float64(len(counted.steps))
	c.out.set("cluster.barriers", barriers)
	c.out.set("cluster.elided_share", share(counterSum(counted.snap, "aum_cluster_barriers_elided_total"), barriers))
	hotRows(c.out, "machine_step", "machine_stepn_replay", "fleet_failover")
	return nil
}

// sessionCost estimates what one session with a telemetry registry
// takes, from untraced sessions: twice their median set-up plus wall.
func (f fleetShape) sessionCost(ss []fleetSession) time.Duration {
	var d []float64
	for _, s := range ss {
		d = append(d, (s.setup + s.wall).Seconds())
	}
	return time.Duration(2 * median(d) * float64(time.Second))
}
