// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment produces a typed Table that the
// aumbench command and the benchmark harness render in a paper-like
// textual form; EXPERIMENTS.md records the expected shapes next to the
// measured ones.
package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// Options tune experiment fidelity.
type Options struct {
	// Quick reduces horizons and profiler repetitions so the whole
	// suite runs in seconds (used by tests and -short benches).
	Quick bool
	Seed  uint64
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// horizons returns (runHorizonS, profileReps, profileHorizonS).
func (o Options) horizons() (float64, int, float64) {
	if o.Quick {
		return 20, 3, 10
	}
	return 60, 5, 20
}

// Row is one labelled series of values.
type Row struct {
	Label  string
	Values []float64
}

// Table is the result of one experiment.
type Table struct {
	ID      string
	Title   string
	Columns []string // value column headers
	Rows    []Row
	Notes   []string
	// Metrics carries named scalar outcomes that are not table cells —
	// wall clocks, speedups, fleet sizes — for the aumbench timing
	// report (BENCH_results.json) and CI budget checks.
	Metrics map[string]float64 `json:",omitempty"`
}

// SetMetric records a named scalar outcome for the timing report.
func (t *Table) SetMetric(name string, v float64) {
	if t.Metrics == nil {
		t.Metrics = map[string]float64{}
	}
	t.Metrics[name] = v
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// AddNote appends a free-form note rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Get returns the value at (rowLabel, column), or false.
func (t *Table) Get(rowLabel, column string) (float64, bool) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
			break
		}
	}
	if col < 0 {
		return 0, false
	}
	for _, r := range t.Rows {
		if r.Label == rowLabel && col < len(r.Values) {
			return r.Values[col], true
		}
	}
	return 0, false
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	labelW := 12
	for _, r := range t.Rows {
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, " %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", labelW+2, r.Label)
		for i, v := range r.Values {
			w := 8
			if i < len(colW) {
				w = colW[i]
			}
			fmt.Fprintf(&b, " %*s", w, formatValue(v))
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderCSV formats the table as RFC-4180-ish CSV with the label in
// the first column, for piping into plotting scripts.
func (t *Table) RenderCSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Label))
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func formatValue(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case av == 0:
		return "0"
	case av >= 1e6:
		return fmt.Sprintf("%.3g", v)
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Paper string // which table/figure it reproduces
	Title string
	Run   func(*Lab, Options) (*Table, error)
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Registry returns all experiments sorted by ID.
func Registry() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q (try: %s)", id, strings.Join(IDs(), ", "))
}

// IDs returns all registered experiment ids.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}
