package scenario_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"aum/internal/experiments"
	"aum/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the golden matrix under testdata/golden")

// TestGoldenMatrix sweeps the shipped scenario library through
// experiments.Matrix and compares the table byte-for-byte against the
// checked-in snapshot.
// The simulator and the DSL compiler are deterministic, so any diff is
// a behavior change that must be either fixed or consciously
// re-baselined with
//
//	go test ./internal/scenario -run TestGoldenMatrix -update
//
// (EXPERIMENTS.md documents the flow.)
func TestGoldenMatrix(t *testing.T) {
	specs, err := scenario.LoadDir("library")
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := experiments.Matrix(experiments.NewLab(), specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(tbl, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", "matrix.json")
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
		t.Fatalf("missing golden matrix (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("scenario matrix drifted from golden %s\n%s", path, goldenDiff(want, got))
	}
}

// TestMatrixWidthDeterminism is the width contract applied to the whole
// library sweep: the matrix rendered at lab widths 1, 2, and 8 (each
// fleet run steps its machines at the lab's width) must be
// byte-identical.
func TestMatrixWidthDeterminism(t *testing.T) {
	specs, err := scenario.LoadDir("library")
	if err != nil {
		t.Fatal(err)
	}
	render := func(width int) string {
		lab := experiments.NewLab()
		lab.SetWorkers(width)
		tbl, err := experiments.Matrix(lab, specs)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return tbl.Render()
	}
	ref := render(1)
	for _, w := range []int{2, 8} {
		if got := render(w); got != ref {
			t.Errorf("matrix at width %d diverged from sequential sweep:\nwidth 1:\n%s\nwidth %d:\n%s", w, ref, w, got)
		}
	}
}

// goldenDiff renders a line-oriented summary of the first divergences
// (the experiments package's helper, restated for this test binary).
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
