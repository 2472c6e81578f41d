package experiments

import (
	"embed"
	"fmt"
	"strings"

	"aum/internal/cluster"
	"aum/internal/scenario"
)

// The fleet, fleetchaos and blame experiments declare their fleets as
// scenario files (DESIGN.md §11), embedded here; each experiment only
// pins the run's horizon and seed and varies its sweep axis.
//
//go:embed scenarios/*.json
var scenarioFiles embed.FS

// scenarioRow is one table row: an embedded scenario file and the
// sweep-axis change the row makes to it (nil runs the file as is).
type scenarioRow struct {
	label string
	file  string
	vary  func(*scenario.Spec)
}

// stormRow is the chaos-standby fleet under a storm of n crashes. A
// storm needs at least one crash, so n = 0 drops the faults section and
// the row runs fault-free.
func stormRow(n int) scenarioRow {
	return scenarioRow{fmt.Sprintf("crashes=%d", n), "chaos-standby", func(s *scenario.Spec) {
		if n == 0 {
			s.Faults = nil
			return
		}
		s.Faults.Storm.Crashes = n
	}}
}

// spec parses the row's embedded scenario file, pins it to the run's
// horizon and seed, and applies the row's variation.
func (r scenarioRow) spec(o Options) (*scenario.Spec, error) {
	data, err := scenarioFiles.ReadFile("scenarios/" + r.file + ".json")
	if err != nil {
		return nil, err
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.file, err)
	}
	o = o.withDefaults()
	s.HorizonS, _, _ = o.horizons()
	s.Seed = o.Seed
	if r.vary != nil {
		r.vary(s)
	}
	return s, nil
}

// runScenarioRows runs every row's scenario through runScenarios.
func (l *Lab) runScenarioRows(rows []scenarioRow, o Options, attach func(int, *cluster.Config)) ([]cluster.Result, error) {
	specs := make([]*scenario.Spec, len(rows))
	for i, r := range rows {
		s, err := r.spec(o)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return l.runScenarios(specs, attach)
}

// runScenarios compiles every scenario, then runs the fleets through
// the lab's parallel pool; results land in input order. Everything is
// compiled first, so a malformed member fails before any simulation
// time is spent. attach, when non-nil, adjusts each compiled config
// before its run (blame hooks its tracer there).
func (l *Lab) runScenarios(specs []*scenario.Spec, attach func(int, *cluster.Config)) ([]cluster.Result, error) {
	cfgs := make([]cluster.Config, len(specs))
	for i, s := range specs {
		cfg, err := s.Compile()
		if err != nil {
			return nil, fmt.Errorf("scenario: compiling %q: %s", s.Name, strings.TrimPrefix(err.Error(), "scenario: "))
		}
		cfg.Workers = l.Workers()
		if attach != nil {
			attach(i, &cfg)
		}
		cfgs[i] = cfg
	}
	results := make([]cluster.Result, len(specs))
	err := l.Parallel(len(specs), func(i int) error {
		res, err := cluster.Run(cfgs[i])
		if err != nil {
			return fmt.Errorf("scenario: running %q: %w", specs[i].Name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// MatrixColumns is the scenario matrix's column set: the fleet-level
// outcomes every scenario — shaped, mixed, faulted, or plain — can be
// judged on. TTFT/TPOT are SLO-attainment fractions, avail is the
// serving-time fraction (1.0 for a fault-free run), mach-s is powered
// machine-seconds (the cost axis).
var MatrixColumns = []string{"goodtok/s", "ttft-guar", "tpot-guar", "avail", "mach-s", "watts", "unrouted"}

// Matrix sweeps every scenario through the lab's parallel pool and
// assembles one comparison table, rows in input order. A failing
// scenario fails the sweep with an error naming it.
func Matrix(lab *Lab, specs []*scenario.Spec) (*Table, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario: matrix over an empty scenario list")
	}
	results, err := lab.runScenarios(specs, nil)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "matrix",
		Title:   fmt.Sprintf("Scenario matrix: %d declarative scenarios", len(specs)),
		Columns: append([]string(nil), MatrixColumns...),
	}
	for i, s := range specs {
		res := results[i]
		t.AddRow(s.Name, res.GoodTokensPS, res.TTFTGuar, res.TPOTGuar,
			res.Availability, res.MachineSecondsActive, res.Watts, float64(res.Unrouted))
	}
	t.AddNote("declarative scenarios (DESIGN.md §11) swept through Lab.Parallel; rows in file-name order")
	return t, nil
}
