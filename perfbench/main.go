// Command aumperf is the repository benchmark. It drives the aum
// library only through its public facade, on one of four workloads:
//
//	paper-tables   the 21 paper tables and figures, in quick mode
//	fleet-busy     64 machines at class default rates, stepped barrier by barrier
//	fleet-sparse   1024 machines at a few requests per second
//	gateway-stream open-loop streaming chat completions through the gateway
//
// An untraced run (--trace 0) prints the end-to-end metrics; a traced
// run (--trace 1) prints the per-layer metrics, recording spans around
// the facade calls it makes. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Build and run from the repository root with
//
//	bash perfbench/run.sh --workload fleet-busy --seed 1 --seconds 20 --trace 0
//
// --workload all runs the four in turn, each printing its own report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric. The catalogs below are the
// source of BENCHMARK.json's end_to_end and per_layer lists.
type metricDef struct {
	Name, Unit, Better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"sim_s_per_wall_s", "ratio", "higher"},
	{"peak_heap_mb", "MB", "lower"},
	{"ttft_overhead_ms_p50", "ms", "lower"},
	{"cpu_ms_per_stream", "ms", "lower"},
}

// paperIDs are the experiments whose paper reference is a Figure, a
// Table or §VII — no "(ext)" extension, no robustness study.
var paperIDs = []string{
	"fig4", "fig5", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10",
	"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
	"overhead", "sens", "table1", "table2", "table3", "tco",
}

func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, id := range paperIDs {
		defs = append(defs, metricDef{"experiments.wall_s." + id, "s", "lower"})
	}
	return append(defs, []metricDef{
		{"core.profile_s", "s", "lower"},
		{"core.profile_allocs", "count", "lower"},
		{"core.decision_ns", "ns", "lower"},
		{"core.decision_allocs", "count", "lower"},
		{"core.ctrl_ticks", "count", "lower"},
		{"core.division_switches", "count", "lower"},
		{"colo.run_s", "s", "lower"},
		{"colo.run_allocs", "count", "lower"},
		{"machine.step_ns", "ns", "lower"},
		{"machine.step_allocs", "count", "lower"},
		{"machine.stepn_replay_ns", "ns", "lower"},
		{"machine.stepn_replay_allocs", "count", "lower"},
		{"machine.steps", "count", "lower"},
		{"machine.ff_steps", "count", "higher"},
		{"machine.ff_share", "ratio", "higher"},
		{"serve.submitted", "count", "higher"},
		{"serve.finished", "count", "higher"},
		{"serve.rejected", "count", "lower"},
		{"serve.timed_out", "count", "lower"},
		{"serve.queue_wait_s_mean", "s", "lower"},
		{"serve.decode_batch_mean", "requests", "higher"},
		{"cluster.step_ms_p50", "ms", "lower"},
		{"cluster.step_ms_p99", "ms", "lower"},
		{"cluster.barriers", "count", "higher"},
		{"cluster.barriers_elided", "count", "higher"},
		{"cluster.elided_share", "ratio", "higher"},
		{"cluster.setup_ms_per_machine", "ms", "lower"},
		{"cluster.routed", "count", "higher"},
		{"cluster.failover_ns", "ns", "lower"},
		{"cluster.failover_allocs", "count", "lower"},
		{"runner.scenarios", "count", "higher"},
		{"reqtrace.token_ns", "ns", "lower"},
		{"reqtrace.token_allocs", "count", "lower"},
		{"reqtrace.completed", "count", "higher"},
		{"gateway.ttft_overhead_ms_p99", "ms", "lower"},
		{"gateway.warp_ratio", "ratio", "higher"},
		{"gateway.release_lag_ms", "ms", "lower"},
		{"gateway.tokens_released", "count", "higher"},
		{"gateway.generator_late_ms_p99", "ms", "lower"},
		{"telemetry.events_dropped", "count", "lower"},
		{"runtime.alloc_mb", "MB", "lower"},
		{"runtime.gc_cycles", "count", "lower"},
		{"bench.trace_overhead_share", "ratio", "lower"},
	}...)
}

func knownMetric(name string) bool {
	for _, d := range append(perLayerDefs(), endToEnd...) {
		if d.Name == name {
			return true
		}
	}
	return false
}

type workload struct {
	name string
	run  func(*runCtx) error
}

var workloads = []workload{
	{"paper-tables", runPaperTables},
	{"fleet-busy", runFleetBusy},
	{"fleet-sparse", runFleetSparse},
	{"gateway-stream", runGateway},
}

// runCtx carries one run's settings and collects its output.
type runCtx struct {
	seed    uint64
	budget  time.Duration // how long the timed phase measures
	traced  bool
	workers int
	spans   *spanLog // nil when untraced
	out     *output
}

// metric is one entry of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output collects a run's metrics, the sample count behind each, and
// its operation tally.
type output struct {
	defs      map[string]metricDef
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
}

func newOutput(defs []metricDef) *output {
	o := &output{defs: map[string]metricDef{}, metrics: map[string]metric{}, samples: map[string]int{}}
	for _, d := range defs {
		o.defs[d.Name] = d
		o.metrics[d.Name] = metric{Unit: d.Unit}
	}
	return o
}

// set records a metric of the run's catalog; names outside it (the
// other mode's metrics) are dropped, so workloads need not branch.
func (o *output) set(name string, v float64) { o.setN(name, v, 0) }

// setN records a metric together with the number of samples behind it.
func (o *output) setN(name string, v float64, n int) {
	d, ok := o.defs[name]
	if !ok {
		if !knownMetric(name) {
			panic("aumperf: metric " + name + " is in no catalog")
		}
		return
	}
	o.metrics[name] = metric{Value: v, Unit: d.Unit}
	if n > 0 {
		o.samples[name] = n
	}
}

// op tallies one attempted operation; a non-nil err counts it failed.
func (o *output) op(err error) {
	o.attempted++
	if err != nil {
		o.fail(err)
	}
}

// fail marks an already-tallied operation failed: its output did not
// pass a check.
func (o *output) fail(err error) {
	o.failed++
	fmt.Fprintln(os.Stderr, "aumperf: failed:", err)
}

// timedRepeat calls f until budget is spent, and returns how many
// calls ran. It always makes one call, and starts another only if a
// call of average length still fits in the budget, so a run measures
// whole repetitions and ends near its budget.
func timedRepeat(budget time.Duration, f func(i int) error) (int, error) {
	start := time.Now()
	for i := 0; ; i++ {
		if err := f(i); err != nil {
			return i + 1, err
		}
		spent := time.Since(start)
		if spent+spent/time.Duration(i+1) > budget {
			return i + 1, nil
		}
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-tables | fleet-busy | fleet-sparse | gateway-stream | all")
		seed    = flag.Uint64("seed", 42, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 20, "how long the timed phase measures")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
		outDir  = flag.String("out", ".bench_build", "directory for the traced run's span file")
	)
	flag.Parse()
	var run []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			run = append(run, w)
		}
	}
	if len(run) == 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: aumperf --workload <name|all> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	budget := time.Duration(*seconds * float64(time.Second))
	for _, w := range run {
		if err := runWorkload(w, *seed, budget, *trace == 1, *outDir); err != nil {
			fmt.Fprintf(os.Stderr, "aumperf: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		runtime.GC() // leave no garbage to the next workload of an "all" run
	}
}

// runWorkload runs one workload and prints its report.
func runWorkload(w workload, seed uint64, budget time.Duration, traced bool, outDir string) error {
	defs := endToEnd
	if traced {
		defs = perLayerDefs()
	}
	c := &runCtx{
		seed:    seed,
		budget:  budget,
		traced:  traced,
		workers: runtime.NumCPU(),
		out:     newOutput(defs),
	}
	if traced {
		c.spans = newSpanLog()
	}
	origin, steal := time.Now(), startSteal()
	if err := w.run(c); err != nil {
		return err
	}
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if err := c.spans.writeFile(filepath.Join(outDir, "spans-"+w.name+".json"), origin); err != nil {
			return err
		}
		printSelfTimes(c.spans)
	}
	return c.out.report(w.name, seed, steal.share())
}

// printSelfTimes lists the traced run's self time per span name, the
// largest first.
func printSelfTimes(l *spanLog) {
	self := l.selfByName()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("self %-28s %10.3f s\n", n, self[n].Seconds())
	}
}

// report prints the host stamp, every metric by name with its unit and
// sample count, and last the JSON result line.
func (o *output) report(wl string, seed uint64, stealShare float64) error {
	for name, m := range o.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	host := hostFacts(seed)
	host["steal_share"] = stealShare
	stamp := map[string]any{"workload": wl, "host": host, "samples": o.samples}
	b, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Printf("stamp %s\n", b)
	names := make([]string, 0, len(o.metrics))
	for n := range o.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := o.metrics[n]
		if k := o.samples[n]; k > 0 {
			fmt.Printf("%-34s %16.6f %-8s n=%d\n", n, m.Value, m.Unit, k)
		} else {
			fmt.Printf("%-34s %16.6f %s\n", n, m.Value, m.Unit)
		}
	}
	fmt.Printf("attempted %d failed %d\n", o.attempted, o.failed)
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0 && o.attempted > 0, o.attempted, o.failed, o.metrics}
	b, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}
