// Command aumbench regenerates the paper's tables and figures.
//
// Usage:
//
//	aumbench -list
//	aumbench -run fig14
//	aumbench -run all -quick -workers 8
//	aumbench -scenarios internal/scenario/library -matrix
//	aumbench -scenarios dir/ -lint
//
// -scenarios enters scenario mode: every *.json / *.jsonc file in the
// directory is loaded as a declarative workload scenario (DESIGN.md
// §11). -matrix (the default action) sweeps them all through the
// runner pool and prints one comparison table; -matrix-out also writes
// it as JSON. -lint stops after validating and compiling each file,
// printing one line per scenario — the CI schema check.
//
// Each experiment prints a paper-style text table; EXPERIMENTS.md maps
// every ID to the corresponding table or figure and records the
// expected shapes. Independent simulations inside each experiment fan
// out across the runner pool (-workers); the determinism contract
// (DESIGN.md §6) guarantees the tables are identical at any width.
//
// -bench-out writes a machine-readable timing report (BENCH_results
// schema below), so CI can archive wall-clock trends next to the
// tables. It is off by default, so an ad-hoc run never overwrites the
// checked-in baseline. The timings are first folded into telemetry gauges
// (aumbench_experiment_wall_seconds{id="..."}) and the report is built
// from that snapshot, so the gauges and the JSON cannot disagree.
//
// -trace writes a Chrome trace_event file from one instrumented
// co-location run (see trace.go); open it in chrome://tracing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aum"
)

// benchReport is the BENCH_results.json schema.
type benchReport struct {
	Suite       string            `json:"suite"`
	Quick       bool              `json:"quick"`
	Seed        uint64            `json:"seed"`
	Workers     int               `json:"workers"`
	GoMaxProcs  int               `json:"go_max_procs"`
	NumCPU      int               `json:"num_cpu"`
	GoVersion   string            `json:"go_version"`
	TotalS      float64           `json:"total_s"`
	Experiments []experimentTimed `json:"experiments"`
	// HotPaths pins the simulator's per-step cost and allocation
	// count (aum.MeasureHotPaths) next to the wall clocks, so the
	// perf trajectory records both levels.
	HotPaths []aum.HotPathBench `json:"hot_paths,omitempty"`
}

type experimentTimed struct {
	ID    string  `json:"id"`
	Paper string  `json:"paper"`
	WallS float64 `json:"wall_s"`
	// Metrics carries the experiment's scalar summary metrics (Table
	// Metrics — e.g. fleet100k's speedup_vs_legacy) so the archived
	// report records headline numbers, not just wall clocks.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	var (
		list      = flag.Bool("list", false, "list available experiments")
		run       = flag.String("run", "", "experiment id to run, or 'all'")
		quick     = flag.Bool("quick", false, "reduced horizons (seconds instead of minutes)")
		seed      = flag.Uint64("seed", 42, "root random seed")
		format    = flag.String("format", "text", "output format: text | csv")
		workers   = flag.Int("workers", 0, "per-experiment fan-out width (0 = default); never changes results")
		ff        = flag.Bool("ff", true, "quiescence-aware fast-forward (DESIGN.md §9); never changes results")
		benchOut  = flag.String("bench-out", "", "write the timing report to this path ('' disables; the checked-in baseline is -run all -quick -bench-out BENCH_results.json)")
		tracePath = flag.String("trace", "", "write a Chrome trace_event file from one instrumented run ('' disables)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the run to this file ('' disables)")
		memProf   = flag.String("memprofile", "", "write a heap profile at exit to this file ('' disables)")
		scenDir   = flag.String("scenarios", "", "scenario mode: directory of declarative *.json/*.jsonc scenarios")
		matrix    = flag.Bool("matrix", false, "with -scenarios: sweep every scenario and print the comparison table (default action)")
		lint      = flag.Bool("lint", false, "with -scenarios: validate and compile every scenario, then exit")
		matrixOut = flag.String("matrix-out", "", "with -scenarios -matrix: also write the table as JSON to this path ('' disables)")
	)
	flag.StringVar(run, "experiment", "", "alias for -run")
	flag.Parse()
	aum.SetFastForward(*ff)

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		path := *memProf
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile reflects retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	if *tracePath != "" {
		if err := writeTrace(*tracePath, *seed, 8); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *scenDir != "" {
		if err := scenarioMode(*scenDir, *lint, *matrix, *matrixOut, *format, *workers); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *list || *run == "" {
		if *run == "" && !*list && *tracePath != "" {
			return // -trace alone is a complete invocation
		}
		fmt.Println("available experiments:")
		for _, e := range aum.Experiments() {
			fmt.Printf("  %-9s %-14s %s\n", e.ID, "("+e.Paper+")", e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	lab := aum.NewLab()
	if *workers > 0 {
		lab.SetWorkers(*workers)
	}
	opt := aum.ExperimentOptions{Quick: *quick, Seed: *seed}

	var todo []aum.Experiment
	if *run == "all" {
		todo = aum.Experiments()
	} else {
		// -run also accepts a comma-separated list of ids.
		for _, id := range strings.Split(*run, ",") {
			e, err := aum.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			todo = append(todo, e)
		}
	}
	// Per-experiment wall clocks land in gauges first; the JSON report
	// below is rendered from the snapshot so there is one source of
	// truth. (Wall time is allowed here — it annotates the run, it
	// never enters a result table.)
	benchTel := aum.NewTelemetryRegistry()
	metricsByID := make(map[string]map[string]float64)
	suiteStart := time.Now()
	for _, e := range todo {
		start := time.Now()
		tbl, err := e.Run(lab, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		benchTel.Gauge(fmt.Sprintf("aumbench_experiment_wall_seconds{id=%q}", e.ID)).Set(wall)
		if len(tbl.Metrics) > 0 {
			metricsByID[e.ID] = tbl.Metrics
		}
		if *format == "csv" {
			fmt.Printf("# %s: %s\n%s\n", tbl.ID, tbl.Title, tbl.RenderCSV())
			continue
		}
		fmt.Print(tbl.Render())
		fmt.Printf("(%s reproduces %s; %.1fs)\n\n", e.ID, e.Paper, wall)
	}
	benchTel.Gauge("aumbench_suite_wall_seconds").Set(time.Since(suiteStart).Seconds())

	snap := benchTel.Snapshot()
	report := benchReport{
		Suite: "aumbench", Quick: *quick, Seed: *seed,
		Workers: lab.Workers(), GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
	}
	for _, e := range todo {
		w, _ := snap.GaugeValue(fmt.Sprintf("aumbench_experiment_wall_seconds{id=%q}", e.ID))
		report.Experiments = append(report.Experiments, experimentTimed{
			ID: e.ID, Paper: e.Paper, WallS: w, Metrics: metricsByID[e.ID]})
	}
	report.TotalS, _ = snap.GaugeValue("aumbench_suite_wall_seconds")
	if *benchOut != "" && len(report.Experiments) > 0 {
		report.HotPaths = aum.MeasureHotPaths()
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(*benchOut, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d experiments, %.1fs total)\n", *benchOut, len(report.Experiments), report.TotalS)
	}
}
