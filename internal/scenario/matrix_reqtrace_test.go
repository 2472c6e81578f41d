package scenario_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"aum/internal/experiments"
	"aum/internal/reqtrace"
	"aum/internal/scenario"
)

// TestMatrixRequestTracingNeutral extends the tracing-neutrality
// contract (DESIGN.md §12) to the declarative scenario matrix: with
// request tracing globally forced on, the full library sweep must stay
// byte-identical to the checked-in golden, which was generated with
// tracing off.
func TestMatrixRequestTracingNeutral(t *testing.T) {
	if testing.Short() {
		t.Skip("library sweep skipped in -short")
	}
	reqtrace.SetForced(true)
	defer reqtrace.SetForced(false)

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
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "matrix.json"))
	if err != nil {
		t.Fatalf("missing golden matrix (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("forced request tracing changed the scenario matrix\n%s", goldenDiff(want, got))
	}
}
