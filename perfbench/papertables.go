package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"aum"
)

// goldenDir holds the checked-in seed-42 tables, relative to the
// repository root the benchmark runs from.
var goldenDir = filepath.Join("internal", "experiments", "testdata", "golden")

// goldenSeed is the seed the checked-in tables were generated with.
const goldenSeed = 42

// volatileRows are host wall-clock rows, zeroed before golden
// comparison exactly as the experiments' golden test does.
var volatileRows = map[string]map[string]bool{
	"overhead": {"decision-latency-ns": true},
}

// normalizedJSON renders a table the way its golden file stores it.
func normalizedJSON(tbl *aum.ResultTable) ([]byte, error) {
	if vol := volatileRows[tbl.ID]; vol != nil {
		for i := range tbl.Rows {
			if vol[tbl.Rows[i].Label] {
				for j := range tbl.Rows[i].Values {
					tbl.Rows[i].Values[j] = 0
				}
			}
		}
		for k := range tbl.Metrics {
			tbl.Metrics[k] = 0
		}
	}
	b, err := json.MarshalIndent(tbl, "", "  ")
	return append(b, '\n'), err
}

// newTablesLab builds the system a pass runs on: a fresh Lab and the
// 21 experiments it regenerates.
func newTablesLab(workers int) (*aum.Lab, []aum.Experiment, error) {
	lab := aum.NewLab()
	lab.SetWorkers(workers)
	exps := make([]aum.Experiment, len(paperIDs))
	for i, id := range paperIDs {
		e, err := aum.ExperimentByID(id)
		if err != nil {
			return nil, nil, err
		}
		exps[i] = e
	}
	return lab, exps, nil
}

// tablesPass is one regeneration of the tables, in paperIDs order, on
// a fresh Lab. A pass cut short holds only the experiments it ran.
type tablesPass struct {
	wall   time.Duration
	perExp []time.Duration // host time of each experiment run
	perCPU []time.Duration // process CPU time of each experiment run
	tables [][]byte        // normalized JSON; nil for a table not made
}

// runTablesPass regenerates the tables in order. tel, when set, is
// wired into the Lab; spans, when set, records one span per experiment
// under a pass span. after, when set, is called after each experiment
// with the index of the next; returning false ends the pass there.
func runTablesPass(c *runCtx, tel *aum.TelemetryRegistry, spans *spanLog, after func(next int) bool) (tablesPass, error) {
	lab, exps, err := newTablesLab(c.workers)
	if err != nil {
		return tablesPass{}, err
	}
	lab.SetTelemetry(tel)
	p := tablesPass{tables: make([][]byte, len(exps))}
	passSpan := spans.begin("pass", 0, 0)
	start := time.Now()
	for i, e := range exps {
		sp := spans.begin("experiment."+e.ID, passSpan, 0)
		cpu0, t0 := cpuTime(), time.Now()
		tbl, err := e.Run(lab, aum.ExperimentOptions{Quick: true, Seed: c.seed})
		p.perExp = append(p.perExp, time.Since(t0))
		p.perCPU = append(p.perCPU, cpuTime()-cpu0)
		spans.end(sp)
		if err == nil {
			p.tables[i], err = normalizedJSON(tbl)
		}
		c.out.op(err)
		if after != nil && !after(i+1) {
			break
		}
	}
	p.wall = time.Since(start)
	spans.end(passSpan)
	return p, nil
}

// checkTables checks each table of a pass: at the golden seed it must
// equal its golden byte for byte, in a later pass it must equal the
// run's first pass, and at any seed it must have its golden's shape
// (columns, row labels and row lengths). Each mismatch counts
// one failed operation.
func checkTables(c *runCtx, p, first tablesPass) error {
	for i, id := range paperIDs {
		got := p.tables[i]
		if got == nil {
			continue // already counted as failed
		}
		golden, err := os.ReadFile(filepath.Join(goldenDir, id+".json"))
		if err != nil {
			return fmt.Errorf("golden tables unavailable: %w", err)
		}
		switch {
		case c.seed == goldenSeed && !bytes.Equal(got, golden):
			err = errors.New("differs from its golden")
		case first.tables != nil && !bytes.Equal(got, first.tables[i]):
			err = errors.New("differs from the run's first pass")
		default:
			err = sameShape(got, golden)
		}
		if err != nil {
			c.out.fail(fmt.Errorf("table %s: %w", id, err))
		}
	}
	return nil
}

// tableShape is the part of a table that does not depend on the seed
// (table3's title names the bucket the seed's model picked).
type tableShape struct {
	ID      string
	Columns []string
	Rows    []struct {
		Label  string
		Values []float64
	}
}

// sameShape reports whether two rendered tables have the same
// columns, row labels and row lengths.
func sameShape(got, want []byte) error {
	var g, w tableShape
	if err := json.Unmarshal(got, &g); err != nil {
		return err
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	if g.ID != w.ID || !slices.Equal(g.Columns, w.Columns) || len(g.Rows) != len(w.Rows) {
		return errors.New("columns or row count differ from its golden")
	}
	for i := range g.Rows {
		if g.Rows[i].Label != w.Rows[i].Label || len(g.Rows[i].Values) != len(w.Rows[i].Values) {
			return fmt.Errorf("row %d (%s) differs in shape from its golden", i, g.Rows[i].Label)
		}
	}
	return nil
}

// chatbotWithSPECjbb returns the co-location the probes run: the
// chatbot scenario sharing the machine with SPECjbb.
func chatbotWithSPECjbb() (aum.WorkloadProfile, aum.Scenario, error) {
	be, err := aum.CoRunnerByName("SPECjbb")
	if err != nil {
		return be, aum.Scenario{}, err
	}
	scen, err := aum.ScenarioByName("cb")
	return be, scen, err
}

// Sim-speed probes run in rounds between the experiments of the timed
// passes, whenever the rounds so far have taken less than
// coloProbeShare of the timed phase. So they sample the host over the
// whole run, as wall_s does; a short run tops them up to coloRounds.
const (
	coloRounds     = 8
	coloProbeShare = 0.2
	coloProbeSimS  = 20 // simulated seconds per probe
)

// coloProbe is the sim-speed probe: one co-location run (SMT sharing,
// GenA, chatbot, SPECjbb), the loop every paper table is made of.
func coloProbe(seed uint64) error {
	be, scen, err := chatbotWithSPECjbb()
	if err != nil {
		return err
	}
	_, err = aum.Run(aum.RunConfig{
		Plat: aum.GenA(), Model: aum.Llama2_7B(), Scen: scen, BE: &be,
		Manager: aum.NewSMTSharing(), HorizonS: coloProbeSimS, Seed: seed,
	})
	return err
}

// coloRound runs one probe per worker at once, with the round's seeds,
// and returns the host time the round took and each probe's error. A
// probe is single-threaded, and on a shared host one core's speed
// differs from process to process; a round uses every core, as the
// passes do.
func coloRound(seeds []uint64) (time.Duration, []error) {
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	start := time.Now()
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = coloProbe(seed)
		}()
	}
	wg.Wait()
	return time.Since(start), errs
}

// Building a Lab takes microseconds, too little to time alone, so each
// set-up sample times a batch of builds. Some samples are taken up
// front and one after each probe round, so the median does not rest
// on one moment of a shared host.
const (
	labSetupUpFront = 16
	labSetupBatch   = 200
)

// labSetup times one batch of Lab builds and returns seconds per build.
func labSetup(workers int) (float64, error) {
	t0 := time.Now()
	for k := 0; k < labSetupBatch; k++ {
		if _, _, err := newTablesLab(workers); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds() / labSetupBatch, nil
}

func runPaperTables(c *runCtx) error {
	if c.traced {
		return tracePaperTables(c)
	}
	var setups []float64
	setupSample := func() error {
		d, err := labSetup(c.workers)
		setups = append(setups, d)
		return err
	}
	for len(setups) < labSetupUpFront {
		if err := setupSample(); err != nil {
			return err
		}
	}

	heap := startHeapSampler(5 * time.Millisecond)
	start := time.Now()
	var rates []float64 // each round's simulated over host seconds
	probes, probeTime := 0, time.Duration(0)
	round := func() error {
		seeds := make([]uint64, c.workers)
		for i := range seeds {
			seeds[i] = sessionSeed(c.seed, probes+i)
		}
		d, errs := coloRound(seeds)
		for _, err := range errs {
			c.out.op(err)
		}
		rates = append(rates, coloProbeSimS*float64(len(seeds))/d.Seconds())
		probes, probeTime = probes+len(seeds), probeTime+d
		return setupSample()
	}
	// Per pass, each experiment's host and CPU seconds. Passes run until
	// the budget is spent; the last one stops before an experiment whose
	// median so far would overrun it, so every run measures about the
	// budget, whatever the host's speed.
	var perExp, perCPU [][]float64
	fits := func(k int) bool {
		typical := medians(perExp)
		return k >= len(typical) || time.Since(start)+time.Duration(typical[k]*float64(time.Second)) <= c.budget
	}
	var roundErr error
	after := func(next int) bool {
		for roundErr == nil && probeTime.Seconds() < coloProbeShare*time.Since(start).Seconds() {
			roundErr = round()
		}
		return roundErr == nil && (next == len(paperIDs) || fits(next))
	}
	var first tablesPass
	for i := 0; ; i++ {
		p, err := runTablesPass(c, nil, nil, after)
		if err == nil {
			err = roundErr
		}
		if err == nil {
			err = checkTables(c, p, first)
		}
		if err != nil {
			heap.stopMB()
			return err
		}
		if i == 0 {
			first = p
		}
		perExp = append(perExp, seconds(p.perExp))
		perCPU = append(perCPU, seconds(p.perCPU))
		if len(p.perExp) < len(paperIDs) || !fits(0) {
			break
		}
	}
	for len(rates) < coloRounds {
		if err := round(); err != nil {
			return err
		}
	}
	peak := heap.stopMB()
	c.out.setN("setup_s", median(setups), len(setups))
	typical := medians(perExp)
	c.out.setN("wall_s", sum(typical), len(perExp))
	// The median round: a single round swings by 15% on a shared host.
	c.out.setN("sim_s_per_wall_s", median(rates), len(rates))
	c.out.set("peak_heap_mb", peak)
	c.out.setN("ttft_overhead_ms_p50", sum(typical)*1e3/float64(len(paperIDs)), len(perExp))
	c.out.setN("cpu_ms_per_stream", sum(medians(perCPU))*1e3/float64(len(paperIDs)), len(perCPU))
	return nil
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tracePaperTables is the traced run: an untraced baseline half, a
// traced half with spans and a telemetry registry on the Lab, then the
// core, colo and machine hot-path rows.
func tracePaperTables(c *runCtx) error {
	half := c.budget / 2
	var base, traced []float64
	var first tablesPass
	if _, err := timedRepeat(half, func(i int) error {
		p, err := runTablesPass(c, nil, nil, nil)
		if err == nil {
			err = checkTables(c, p, first)
		}
		if i == 0 {
			first = p
		}
		base = append(base, p.wall.Seconds())
		return err
	}); err != nil {
		return err
	}
	perExp := make([][]float64, len(paperIDs))
	var snap aum.TelemetrySnapshot
	mem := startMemDelta()
	n, err := timedRepeat(half, func(i int) error {
		tel := aum.NewTelemetryRegistry()
		p, err := runTablesPass(c, tel, c.spans, nil)
		if err == nil {
			err = checkTables(c, p, first)
		}
		traced = append(traced, p.wall.Seconds())
		for k, d := range p.perExp {
			perExp[k] = append(perExp[k], d.Seconds())
		}
		snap = tel.Snapshot()
		return err
	})
	if err != nil {
		return err
	}
	allocMB, gcs := mem.stop()
	c.out.set("runtime.alloc_mb", allocMB/float64(n))
	c.out.set("runtime.gc_cycles", gcs/float64(n))
	for k, id := range paperIDs {
		c.out.setN("experiments.wall_s."+id, median(perExp[k]), len(perExp[k]))
	}
	c.out.set("bench.trace_overhead_share", median(traced)/median(base)-1)
	runSnap, err := coreRows(c)
	if err != nil {
		return err
	}
	// The Lab hands its registry only to the runner, so the controller,
	// machine and serving counters come from the traced AUM run.
	setLayerCounters(c.out, runSnap)
	c.out.set("runner.scenarios", counterSum(snap, "aum_runner_scenarios_total"))
	hotRows(c.out, "machine_step", "machine_stepn_replay")
	return nil
}

// coreRows measures the controller layer through the facade: one
// quick Profile, the AUV decision search over the profiled model (the
// operation §VII-D bounds at 1 ms), and one AUM co-location Run, timed
// bare and then repeated with a telemetry registry whose snapshot it
// returns.
func coreRows(c *runCtx) (aum.TelemetrySnapshot, error) {
	var snap aum.TelemetrySnapshot
	be, scen, err := chatbotWithSPECjbb()
	if err != nil {
		return snap, err
	}
	var model *aum.AUVModel
	sp := c.spans.begin("Profile", 0, 0)
	wall, allocs, err := measureOnce(func() error {
		var err error
		model, err = aum.Profile(aum.GenA(), aum.Llama2_7B(), scen, be, aum.ProfilerOptions{Reps: 1, HorizonS: 4, Seed: c.seed})
		return err
	})
	c.spans.end(sp)
	c.out.op(err)
	if err != nil {
		return snap, nil
	}
	c.out.set("core.profile_s", wall.Seconds())
	c.out.set("core.profile_allocs", allocs)

	ns, decAllocs := decisionSearch(model)
	c.out.set("core.decision_ns", ns)
	c.out.set("core.decision_allocs", decAllocs)
	fmt.Printf("core.decision_ns %.0f ns against the 1 ms bound of paper section VII-D\n", ns)

	run := func(tel *aum.TelemetryRegistry) error {
		mgr, err := aum.NewAUM(model, aum.ControllerOptions{Telemetry: tel})
		if err != nil {
			return err
		}
		_, err = aum.Run(aum.RunConfig{
			Plat: aum.GenA(), Model: aum.Llama2_7B(), Scen: scen, BE: &be,
			Manager: mgr, HorizonS: 20, Seed: c.seed, Telemetry: tel,
		})
		return err
	}
	sp = c.spans.begin("Run", 0, 0)
	wall, allocs, err = measureOnce(func() error { return run(nil) })
	c.spans.end(sp)
	c.out.op(err)
	c.out.set("colo.run_s", wall.Seconds())
	c.out.set("colo.run_allocs", allocs)

	tel := aum.NewTelemetryRegistry()
	sp = c.spans.begin("Run", 0, 0)
	err = run(tel)
	c.spans.end(sp)
	c.out.op(err)
	return tel.Snapshot(), nil
}

var decisionSink float64

// decisionSearch times the controller's bucket search over every
// division x configuration of the model, as the repository's
// BenchmarkControllerDecision does, returning ns and allocations per
// search.
func decisionSearch(m *aum.AUVModel) (ns, allocs float64) {
	search := func() {
		best := -1.0
		for d := range m.Divisions {
			for cfg := range m.Configs {
				if e := m.Bucket(d, cfg).Efficiency(1.8, 0.2, m.Gamma); e > best {
					best = e
				}
			}
		}
		decisionSink = best
	}
	for i := 0; i < 1000; i++ {
		search()
	}
	const iters = 200_000
	wall, mallocs, _ := measureOnce(func() error {
		for i := 0; i < iters; i++ {
			search()
		}
		return nil
	})
	return float64(wall.Nanoseconds()) / iters, mallocs / iters
}
