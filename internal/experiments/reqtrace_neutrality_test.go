package experiments

import (
	"os"
	"testing"

	"aum/internal/reqtrace"
)

// TestRequestTracingDoesNotChangeResults is the causal tracer's core
// contract (DESIGN.md §12): tracing is observation only. With request
// tracing globally forced on — so every run in the process carries a
// tracer and every hook executes — every registered experiment must
// still render byte-identical to its checked-in golden snapshot, which
// was generated with tracing off.
func TestRequestTracingDoesNotChangeResults(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment suite skipped in -short")
	}
	reqtrace.SetForced(true)
	defer reqtrace.SetForced(false)

	lab := NewLab()
	o := Options{Quick: true, Seed: 42}
	for _, e := range Registry() {
		e := e
		if e.ID == "fleet100k" {
			// A wall-clock benchmark whose normalized golden is fully
			// zeroed — the comparison is vacuous, and the archetype
			// envelope rejects request tracing anyway (the fixture in
			// the cluster suite pins that rejection).
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			got := renderNormalized(t, lab, e.ID, o) + "\n"
			want, err := os.ReadFile(goldenPath(e.ID))
			if err != nil {
				t.Fatalf("missing golden table (regenerate with -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("forced request tracing changed the table\ngolden:\n%s\ntraced:\n%s", want, got)
			}
		})
	}
}

// TestRequestTracingWidthDeterminism crosses the tracing toggle with
// worker width on the fleet experiments (including the faulted and
// traced ones): traced runs at widths 1, 2 and 8 must render
// byte-identically to the untraced width-1 reference. Run under -race
// in CI, this also exercises the tracer's hook-side locking.
func TestRequestTracingWidthDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiments skipped in -short")
	}
	defer reqtrace.SetForced(false)

	ids := []string{"fleet", "fleetchaos", "blame"}
	o := Options{Quick: true, Seed: 42}
	render := func(traced bool, width int) map[string]string {
		reqtrace.SetForced(traced)
		lab := NewLab()
		lab.SetWorkers(width)
		out := make(map[string]string, len(ids))
		for _, id := range ids {
			out[id] = renderNormalized(t, lab, id, o)
		}
		return out
	}
	ref := render(false, 1)
	for _, w := range []int{1, 2, 8} {
		got := render(true, w)
		for _, id := range ids {
			if got[id] != ref[id] {
				t.Errorf("%s (traced, width=%d) diverged from untraced width 1", id, w)
			}
		}
	}
}
