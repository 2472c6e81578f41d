package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden tables under testdata/golden")

// volatileCells names, per table, the cells that are wall-clock
// measurements of the host rather than simulation outputs: a row label
// masks the whole row, a column name masks that column in every row,
// and a metric name masks that metric. They are zeroed before golden
// comparison so the snapshots stay machine-independent.
var volatileCells = map[string]map[string]bool{
	"overhead": {"decision-latency-ns": true},
	"fleet100k": {"wall-s": true, "sim-per-wall": true,
		"arch_wall_s": true, "legacy_est_wall_s": true, "speedup_vs_legacy": true},
}

func normalizeTable(tbl *Table) {
	vol := volatileCells[tbl.ID]
	if vol == nil {
		return
	}
	for i := range tbl.Rows {
		for j := range tbl.Rows[i].Values {
			if vol[tbl.Rows[i].Label] || vol[tbl.Columns[j]] {
				tbl.Rows[i].Values[j] = 0
			}
		}
	}
	for k := range tbl.Metrics {
		if vol[k] {
			tbl.Metrics[k] = 0
		}
	}
}

// renderNormalized runs one experiment on the given lab and returns its
// normalized JSON — the canonical form the golden snapshots use.
func renderNormalized(t *testing.T, lab *Lab, id string, o Options) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Run(lab, o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	normalizeTable(tbl)
	got, err := json.MarshalIndent(tbl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

// TestGoldenTables regenerates every experiment at quick fidelity with
// the default seed and compares the (normalized) tables byte-for-byte
// against the checked-in snapshots. The simulator is deterministic, so
// any diff is a behavior change that must be either fixed or
// consciously re-baselined with
//
//	go test ./internal/experiments -run TestGoldenTables -update
func TestGoldenTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short")
	}
	lab := NewLab()
	o := Options{Quick: true, Seed: 42}
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			got := []byte(renderNormalized(t, lab, e.ID, o) + "\n")
			path := goldenPath(e.ID)
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("table %s drifted from golden %s\n%s", e.ID, path, goldenDiff(want, got))
			}
		})
	}
}

// goldenDiff renders a line-oriented summary of the first divergences.
func goldenDiff(want, got []byte) string {
	w := bytes.Split(want, []byte("\n"))
	g := bytes.Split(got, []byte("\n"))
	var b bytes.Buffer
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var lw, lg []byte
		if i < len(w) {
			lw = w[i]
		}
		if i < len(g) {
			lg = g[i]
		}
		if !bytes.Equal(lw, lg) {
			fmt.Fprintf(&b, "line %d:\n  golden: %s\n  got:    %s\n", i+1, lw, lg)
			if shown++; shown >= 8 {
				b.WriteString("  ...\n")
				break
			}
		}
	}
	return b.String()
}

// TestParallelWidthDeterminism is the runner's contract applied to real
// experiments: the same experiment executed sequentially (width 1) and
// via the parallel runner at widths 2 and 8 must render byte-identical
// tables. Each width uses a fresh Lab so the run cache cannot mask
// re-execution. Run under -race in CI, this also exercises the step
// capture's confinement to its owning machine.
func TestParallelWidthDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	ids := []string{"fig10", "auservice", "fleet", "chaos"}
	render := func(width int) map[string]string {
		lab := NewLab()
		lab.SetWorkers(width)
		out := make(map[string]string, len(ids))
		for _, id := range ids {
			out[id] = renderNormalized(t, lab, id, Options{Quick: true, Seed: 42})
		}
		return out
	}
	ref := render(1)
	for _, w := range []int{2, 8} {
		got := render(w)
		for _, id := range ids {
			if got[id] != ref[id] {
				t.Errorf("%s at width %d diverged from sequential run:\nwidth 1:\n%s\nwidth %d:\n%s",
					id, w, ref[id], w, got[id])
			}
		}
	}

	// fleet100k is the heaviest experiment, so it runs once, at width
	// 1, against its golden, which TestGoldenTables renders at the
	// Lab's default width of 8.
	lab := NewLab()
	lab.SetWorkers(1)
	got := renderNormalized(t, lab, "fleet100k", Options{Quick: true, Seed: 42}) + "\n"
	want, err := os.ReadFile(goldenPath("fleet100k"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("fleet100k at width 1 diverged from its golden (width %d)\n%s",
			defaultWorkers, goldenDiff(want, []byte(got)))
	}
}
