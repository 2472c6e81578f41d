package scenario

import (
	"os"
	"strings"
	"testing"
)

// FuzzLoadScenario hardens the DSL front end: arbitrary bytes must
// produce a "scenario:"-prefixed error or a spec that validates AND
// compiles, never a panic and never a config the cluster layer would
// have to defend against. Run with
//
//	go test ./internal/scenario -fuzz FuzzLoadScenario
//
// The seed corpus (f.Add plus testdata/fuzz/FuzzLoadScenario) is
// replayed by a plain `go test` run, so regressions are caught without
// -fuzz. Compile is included in the property because validation bounds
// (maxHorizonS and friends) exist precisely so a hostile file cannot
// compile into an absurd simulation.
func FuzzLoadScenario(f *testing.F) {
	// Every shipped scenario seeds the corpus: the library and the
	// fleet experiments' embedded files exercise all schema sections.
	for _, dir := range []string{"library", "../experiments/scenarios"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(dir + "/" + e.Name())
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	// Damage classes: truncation, wrong types, unknown fields, numeric
	// edge cases, comment/string interactions.
	f.Add([]byte(``))
	f.Add([]byte(`{`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"version": 1}`))
	f.Add([]byte(`{"version": 2, "name": "x"}`))
	f.Add([]byte(`{"version": 1, "name": "x", "bogus": true}`))
	f.Add([]byte(`{"version": 1, "name": "x", "horizon_s": -5}`))
	f.Add([]byte(`{"version": 1, "name": "x", "horizon_s": 1e308}`))
	f.Add([]byte(`{"version": 1, "name": "x", "arrival": {"rate_per_s": 1e999}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "arrival": {"shape": {"kind": "diurnal", "period_s": 0}}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "arrival": {"tenants": {"count": 99999}}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "fleet": {"machines": [{"platform": "GenZ"}]}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "fleet": {"machines": [{"platform": "GenA", "count": 9999}]}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "faults": {"storm": {"machines": -1, "crashes": 1, "down_s": 1}}}`))
	f.Add([]byte(`{"version": 1, "name": "x"} {"version": 1, "name": "y"}`))
	f.Add([]byte(`// only a comment`))
	f.Add([]byte(`{"version": 1, "name": "x /* not a comment */"} // tail`))
	f.Add([]byte("{\"version\": 1,, \"name\": \"x\"}"))
	f.Add([]byte("{\"version\": 1, \"name\": \"\\\"//\\\\\"}"))
	f.Add([]byte(`{"version": 1, "name": "x", "seed": -1}`))
	f.Add([]byte(`{"version": 1, "name": "x", "model": "gpt-17"}`))
	// The edges the fleet experiments lean on: a storm needs a crash
	// (so a crashes=0 row drops its faults section), a faults section
	// needs a storm or events, and QPS steps may sit at thirds.
	f.Add([]byte(`{"version": 1, "name": "x", "faults": {"storm": {"machines": 4, "crashes": 0, "down_frac": 0.125}}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "faults": {}}`))
	f.Add([]byte(`{"version": 1, "name": "x", "horizon_s": 60, "arrival": {"qps": [{"at_frac": 0.3333333333333333, "rate_per_s": 4}, {"at_frac": 0.6666666666666666, "rate_per_s": 1}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			if !strings.Contains(err.Error(), "scenario:") {
				t.Fatalf("error lost its package context: %v", err)
			}
			return
		}
		// Anything accepted must re-validate...
		if err := s.Validate(); err != nil {
			t.Fatalf("Parse accepted a spec Validate rejects: %v", err)
		}
		// ...and compile without panicking. Name-resolution failures
		// (unknown model) are legitimate errors, but must stay scoped.
		if _, err := s.Compile(); err != nil && !strings.Contains(err.Error(), "scenario:") {
			t.Fatalf("compile error lost its package context: %v", err)
		}
	})
}
