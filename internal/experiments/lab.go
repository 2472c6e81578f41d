package experiments

import (
	"context"
	"fmt"
	"sync"

	"aum/internal/colo"
	"aum/internal/core"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/runner"
	"aum/internal/telemetry"
	"aum/internal/trace"
	"aum/internal/workload"
)

// Lab caches AUV models and co-location results across experiments so
// that Figures 14-18, which share the same run matrix, do not repeat
// simulations. Model profiling and runs deduplicate concurrent
// requests, so experiments may fan out cells across goroutines.
type Lab struct {
	mu      sync.Mutex
	models  map[string]*modelEntry
	runs    map[string]*runEntry
	workers int
	tel     *telemetry.Registry
}

type modelEntry struct {
	once sync.Once
	m    *core.Model
	err  error
}

type runEntry struct {
	once sync.Once
	res  colo.Result
	err  error
}

// NewLab returns an empty lab.
func NewLab() *Lab {
	return &Lab{
		models:  make(map[string]*modelEntry),
		runs:    make(map[string]*runEntry),
		workers: defaultWorkers,
	}
}

// SetWorkers sets the fan-out width for Parallel; n <= 0 restores the
// default. The width never changes results — the runner's determinism
// contract (DESIGN.md §6) guarantees experiment tables are identical at
// any width — only how many scenarios simulate concurrently.
func (l *Lab) SetWorkers(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n <= 0 {
		n = defaultWorkers
	}
	l.workers = n
}

// Workers reports the current fan-out width.
func (l *Lab) Workers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.workers
}

// SetTelemetry attaches a registry on which Parallel counts its cells
// (aum_runner_scenarios_total) and their panics.
func (l *Lab) SetTelemetry(reg *telemetry.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tel = reg
}

// Telemetry returns the attached registry (nil when none).
func (l *Lab) Telemetry() *telemetry.Registry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tel
}

const defaultWorkers = 8

// Parallel runs fn(i) for i in [0, n) across the lab's worker budget.
// Error selection is deterministic: the lowest-indexed failure is
// returned regardless of completion order (the runner's contract), and
// a panicking cell surfaces as a *runner.PanicError instead of taking
// the process down.
func (l *Lab) Parallel(n int, fn func(int) error) error {
	return runner.ForEach(context.Background(), n,
		runner.Options{Workers: l.Workers(), Telemetry: l.Telemetry()},
		func(_ context.Context, i int) error { return fn(i) })
}

// Prewarm executes the given runs across the worker pool so that the
// subsequent (order-sensitive) table-building loop is served entirely
// from the lab cache. Experiments keep their sequential row order while
// the simulations behind the rows fan out.
func (l *Lab) Prewarm(specs []RunSpec, o Options) error {
	return l.Parallel(len(specs), func(i int) error {
		_, err := l.Run(specs[i], o)
		return err
	})
}

// Model returns (profiling on first use) the AUV model for the
// combination.
func (l *Lab) Model(plat platform.Platform, model llm.Model, scen trace.Scenario, be workload.Profile, o Options) (*core.Model, error) {
	o = o.withDefaults()
	_, reps, ph := o.horizons()
	key := fmt.Sprintf("%s/%s/%s/%s/q%v/s%d", plat.Name, model.Name, scen.Name, be.Name, o.Quick, o.Seed)
	l.mu.Lock()
	e, ok := l.models[key]
	if !ok {
		e = &modelEntry{}
		l.models[key] = e
	}
	l.mu.Unlock()
	e.once.Do(func() {
		e.m, e.err = core.Profile(plat, model, scen, be, core.ProfilerOptions{
			Reps: reps, HorizonS: ph, Seed: o.Seed,
		})
	})
	return e.m, e.err
}

// SchemeNames lists the Table V schemes in figure order.
var SchemeNames = []string{"ALL-AU", "SMT-AU", "RP-AU", "AU-UP", "AU-FI", "AU-RB", "AUM"}

// managerFor builds a fresh manager instance for a scheme (managers are
// stateful, so each run needs its own).
func (l *Lab) managerFor(scheme string, plat platform.Platform, model llm.Model, scen trace.Scenario, be workload.Profile, o Options) (colo.Manager, error) {
	switch scheme {
	case "ALL-AU":
		return manager.AllAU{}, nil
	case "SMT-AU":
		return manager.SMTAU{}, nil
	case "RP-AU":
		return &manager.RPAU{}, nil
	}
	m, err := l.Model(plat, model, scen, be, o)
	if err != nil {
		return nil, err
	}
	switch scheme {
	case "AUM":
		return core.NewAUM(m, core.Options{})
	case "AU-UP":
		return core.NewAUUP(m, core.Options{})
	case "AU-FI":
		return core.NewAUFI(m, core.Options{})
	case "AU-RB":
		return core.NewAURB(m, core.Options{})
	}
	return nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
}

// RunSpec identifies one cached co-location run.
type RunSpec struct {
	Plat       platform.Platform
	Model      llm.Model
	Scheme     string
	Scen       trace.Scenario
	BE         *workload.Profile // nil = exclusive
	TrackAlloc bool
	RatePerS   float64
}

// Run executes (or returns the cached result of) one co-location run.
func (l *Lab) Run(spec RunSpec, o Options) (colo.Result, error) {
	o = o.withDefaults()
	horizon, _, _ := o.horizons()
	beName := "none"
	if spec.BE != nil {
		beName = spec.BE.Name
	}
	key := fmt.Sprintf("%s/%s/%s/%s/%s/%v/%.2f/q%v/s%d",
		spec.Plat.Name, spec.Model.Name, spec.Scheme, spec.Scen.Name, beName, spec.TrackAlloc, spec.RatePerS, o.Quick, o.Seed)
	l.mu.Lock()
	e, ok := l.runs[key]
	if !ok {
		e = &runEntry{}
		l.runs[key] = e
	}
	l.mu.Unlock()
	e.once.Do(func() {
		mgr, err := l.managerFor(spec.Scheme, spec.Plat, spec.Model, spec.Scen, profileOrDefault(spec.BE), o)
		if err != nil {
			e.err = err
			return
		}
		e.res, e.err = colo.Run(colo.Config{
			Plat:       spec.Plat,
			Model:      spec.Model,
			Scen:       spec.Scen,
			BE:         spec.BE,
			Manager:    mgr,
			HorizonS:   horizon,
			Seed:       o.Seed,
			RatePerS:   spec.RatePerS,
			TrackAlloc: spec.TrackAlloc,
		})
	})
	return e.res, e.err
}

// profileOrDefault returns the co-runner profile used for AUV-model
// lookup; exclusive runs profile against SPECjbb (the model is unused
// by the static baselines anyway).
func profileOrDefault(be *workload.Profile) workload.Profile {
	if be != nil {
		return *be
	}
	return workload.SPECjbb()
}
