// Command benchdiff compares two aumbench timing reports
// (BENCH_results.json schema) benchstat-style: one row per experiment
// with the old and new wall clocks and the relative delta, flagging
// regressions beyond a threshold.
//
// Usage:
//
//	benchdiff -old BENCH_results.json -new /tmp/new.json
//	benchdiff -old base.json -new head.json -threshold 0.10 -strict
//
// Exit status is 0 unless -strict is set and at least one experiment
// regressed by more than -threshold, OR a hot-path row regressed by
// more than -hot-fail (default 25%). CI runs it non-strict for
// experiment wall clocks — runner wall clocks are noisy, so those
// regressions surface as warnings on the job log — but the hot-path
// gate is unconditional: in-process microbenchmark loops are stable
// enough that a >25% slowdown is a real regression, and it fails the
// job even without -strict. The checked-in baseline is refreshed
// deliberately alongside performance work.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// report mirrors the aumbench BENCH_results.json schema (only the
// fields benchdiff consumes).
type report struct {
	Suite       string  `json:"suite"`
	Quick       bool    `json:"quick"`
	GoMaxProcs  int     `json:"go_max_procs"`
	NumCPU      int     `json:"num_cpu"`
	GoVersion   string  `json:"go_version"`
	TotalS      float64 `json:"total_s"`
	Experiments []struct {
		ID    string  `json:"id"`
		WallS float64 `json:"wall_s"`
	} `json:"experiments"`
	HotPaths []struct {
		Name    string  `json:"name"`
		NsPerOp float64 `json:"ns_per_op"`
	} `json:"hot_paths"`
}

// hostLines renders the host facts of both reports side by side, so a
// reader can tell whether the two sides ran on comparable hosts. A fact
// a report lacks (written before it was recorded) prints as "-".
func hostLines(oldR, newR report) []string {
	line := func(name string, o, n any) string {
		show := func(v any) string {
			if s := fmt.Sprint(v); s != "0" && s != "" {
				return s
			}
			return "-"
		}
		return fmt.Sprintf("%-24s %10s %10s", name, show(o), show(n))
	}
	return []string{
		line("host", "old", "new"),
		line("go_max_procs", oldR.GoMaxProcs, newR.GoMaxProcs),
		line("num_cpu", oldR.NumCPU, newR.NumCPU),
		line("go_version", oldR.GoVersion, newR.GoVersion),
	}
}

// entry is one comparable (id, value) pair from a report — an
// experiment wall clock in seconds or a hot-path cost in ns/op.
type entry struct {
	id  string
	val float64
}

func (r report) experimentEntries() []entry {
	out := make([]entry, 0, len(r.Experiments))
	for _, e := range r.Experiments {
		out = append(out, entry{id: e.ID, val: e.WallS})
	}
	return out
}

// hotPathEntries prefixes hot-path rows with "hot:" so the two id
// namespaces cannot collide.
func (r report) hotPathEntries() []entry {
	out := make([]entry, 0, len(r.HotPaths))
	for _, h := range r.HotPaths {
		out = append(out, entry{id: "hot:" + h.Name, val: h.NsPerOp})
	}
	return out
}

func load(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// row is one comparison line.
type row struct {
	id         string
	oldS       float64
	newS       float64
	delta      float64 // (new-old)/old; NaN-free: only set when oldS > 0
	status     string  // "", "faster", "REGRESSION", "new", "removed"
	comparable bool
}

// flagFloorS is the wall clock below which an experiment is too fast
// to flag: relative deltas on sub-50ms runs are timer noise, not
// signal. Rows below the floor still print, just unmarked.
const flagFloorS = 0.05

// compare joins the two reports' experiment rows in the new report's
// order, appending experiments that only exist in the old one.
func compare(oldR, newR report, threshold float64) (rows []row, regressions int) {
	return compareEntries(oldR.experimentEntries(), newR.experimentEntries(), threshold, flagFloorS)
}

// compareHotPaths does the same join over the hot_paths table, in
// ns/op. In-process microbenchmark loops are far less noisy than
// experiment wall clocks, so every row is flaggable (floor 0).
func compareHotPaths(oldR, newR report, threshold float64) (rows []row, regressions int) {
	return compareEntries(oldR.hotPathEntries(), newR.hotPathEntries(), threshold, 0)
}

func compareEntries(oldE, newE []entry, threshold, floor float64) (rows []row, regressions int) {
	oldW := make(map[string]float64, len(oldE))
	for _, e := range oldE {
		oldW[e.id] = e.val
	}
	seen := make(map[string]bool, len(newE))
	for _, e := range newE {
		seen[e.id] = true
		r := row{id: e.id, newS: e.val}
		if w, ok := oldW[e.id]; ok {
			r.oldS = w
			if w > 0 {
				r.comparable = true
				r.delta = (e.val - w) / w
				switch {
				case w < floor && e.val < floor:
					// too fast to distinguish signal from timer noise
				case r.delta > threshold:
					r.status = "REGRESSION"
					regressions++
				case r.delta < -threshold:
					r.status = "faster"
				}
			}
		} else {
			r.status = "new"
		}
		rows = append(rows, r)
	}
	for _, e := range oldE {
		if !seen[e.id] {
			rows = append(rows, row{id: e.id, oldS: e.val, status: "removed"})
		}
	}
	return rows, regressions
}

func main() {
	oldPath := flag.String("old", "BENCH_results.json", "baseline timing report")
	newPath := flag.String("new", "", "candidate timing report")
	threshold := flag.Float64("threshold", 0.10, "relative slowdown that counts as a regression")
	hotFail := flag.Float64("hot-fail", 0.25, "hot-path slowdown that fails the run even without -strict (<=0 disables)")
	strict := flag.Bool("strict", false, "exit non-zero when regressions are found")
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: -new is required")
		os.Exit(2)
	}
	oldR, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	newR, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	for _, l := range hostLines(oldR, newR) {
		fmt.Println(l)
	}
	fmt.Println()
	rows, regressions := compare(oldR, newR, *threshold)
	printRows("experiment", "old(s)", "new(s)", rows, "%10.3f")
	if oldR.TotalS > 0 && newR.TotalS > 0 {
		fmt.Printf("%-24s %10.3f %10.3f %+7.1f%%\n", "total", oldR.TotalS, newR.TotalS,
			100*(newR.TotalS-oldR.TotalS)/oldR.TotalS)
	}
	hotFailures := 0
	if len(oldR.HotPaths) > 0 || len(newR.HotPaths) > 0 {
		hotRows, hotRegressions := compareHotPaths(oldR, newR, *threshold)
		regressions += hotRegressions
		fmt.Println()
		printRows("hot path", "old(ns)", "new(ns)", hotRows, "%10.1f")
		if *hotFail > 0 {
			for _, r := range hotRows {
				if r.comparable && r.delta > *hotFail {
					hotFailures++
					fmt.Fprintf(os.Stderr, "benchdiff: FAIL %s regressed %+.1f%% (hard limit %.0f%%)\n",
						r.id, 100*r.delta, 100**hotFail)
				}
			}
		}
	}
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d experiment(s) regressed more than %.0f%%\n",
			regressions, 100**threshold)
	}
	// Hot-path failures are unconditional: -strict gates only the noisy
	// wall-clock rows.
	if hotFailures > 0 || (*strict && regressions > 0) {
		os.Exit(1)
	}
}

// printRows renders one comparison table; valFmt formats the value
// columns (seconds for experiments, ns/op for hot paths).
func printRows(kind, oldHdr, newHdr string, rows []row, valFmt string) {
	fmt.Printf("%-24s %10s %10s %8s\n", kind, oldHdr, newHdr, "delta")
	for _, r := range rows {
		switch r.status {
		case "new":
			fmt.Printf("%-24s %10s "+valFmt+" %8s  (new)\n", r.id, "-", r.newS, "-")
		case "removed":
			fmt.Printf("%-24s "+valFmt+" %10s %8s  (removed)\n", r.id, r.oldS, "-", "-")
		default:
			mark := ""
			if r.status != "" {
				mark = "  " + r.status
			}
			if r.comparable {
				fmt.Printf("%-24s "+valFmt+" "+valFmt+" %+7.1f%%%s\n", r.id, r.oldS, r.newS, 100*r.delta, mark)
			} else {
				fmt.Printf("%-24s "+valFmt+" "+valFmt+" %8s%s\n", r.id, r.oldS, r.newS, "-", mark)
			}
		}
	}
}
