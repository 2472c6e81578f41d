package cluster

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aum/internal/chaos"
	"aum/internal/llm"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/reqtrace"
	"aum/internal/telemetry"
	"aum/internal/trace"
)

// diffFixtures are the configs the byte-identity sweep runs: every
// event source the elision predicate reasons about appears in at least
// one — arrival generators, QPS schedule, autoscaler watermarks and
// warming completions, fault injector with retries, disaggregated
// exports, and long idle gaps where elision fires (fleet-idle elides
// most of its barriers; the sparse rows only some).
func diffFixtures() map[string]Config {
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	short := scen
	short.MeanInput, short.MeanOutput = 64, 4
	hetero := func() []MachineSpec {
		return []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
		}
	}
	return map[string]Config{
		"fleet-auv": {
			Machines: hetero(), Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 24, Seed: 7, RatePerS: 3.0,
		},
		"fleet-autoscale": {
			Machines: []MachineSpec{
				{Plat: platform.GenB(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 24, Seed: 7, RatePerS: 1.0,
			QPS:       []RatePoint{{At: 8, RatePerS: 4.0}, {At: 16, RatePerS: 1.0}},
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		},
		"fleet-disagg": {
			Machines: []MachineSpec{
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Role: RolePrefill},
				{Plat: platform.GenB(), Mgr: manager.AllAU{}, Role: RoleDecode},
			},
			Model: model, Scen: scen, Policy: RoundRobin,
			HorizonS: 24, Seed: 7, RatePerS: 1.5,
		},
		"fleetchaos": {
			Machines: []MachineSpec{
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 24, Seed: 7, RatePerS: 2.0,
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
			Faults:    stormOf(chaos.CrashStorm(4, 2, 24, 3, 7)),
		},
		// Short requests at 1 req/s: each finishes well inside the mean
		// arrival gap of 20 barriers, so most barriers are inert and the
		// elided spans run long. This is the row that proves such spans
		// settle byte-identically, not just that busy fleets never elide.
		"fleet-idle": {
			Machines: hetero(), Model: model, Scen: short, Policy: RoundRobin,
			HorizonS: 48, Seed: 7, RatePerS: 1,
		},
		// Sparse traffic: a mean arrival gap of ~100 barriers, but a
		// chatbot request outlives many gaps, so only some barriers
		// are inert.
		"fleet-sparse": {
			Machines: hetero(), Model: model, Scen: scen, Policy: RoundRobin,
			HorizonS: 48, Seed: 7, RatePerS: 0.2,
		},
		"fleet-sparse-scaled": {
			Machines: []MachineSpec{
				{Plat: platform.GenB(), Mgr: manager.AllAU{}},
				{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
			},
			Model: model, Scen: scen, Policy: AUVAware,
			HorizonS: 48, Seed: 7, RatePerS: 0.25,
			QPS:       []RatePoint{{At: 16, RatePerS: 3.0}, {At: 32, RatePerS: 0.2}},
			Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		},
	}
}

// update rewrites the event-core goldens. The checked-in files were
// first generated by the fixed-cadence loop the event core replaced and
// since rewritten only by changes that name every value they moved
// (DESIGN.md §14), so a diff here is a behavior change, not a
// re-baseline to take lightly.
var update = flag.Bool("update", false, "rewrite the event-core goldens under testdata/eventcore")

// goldenBytes runs cfg at the given width and renders what the golden
// pins: the Result JSON of a bare run and the final gauge snapshot of
// a run with telemetry attached, whose Result must match the bare one.
func goldenBytes(t *testing.T, cfg Config, workers int) []byte {
	t.Helper()
	cfg.Workers = workers
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	observed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := json.Marshal(bare)
	if err != nil {
		t.Fatal(err)
	}
	if obs, _ := json.Marshal(observed); string(obs) != string(res) {
		t.Fatalf("width %d: attaching telemetry changed the result\nbare:     %s\nobserved: %s", workers, res, obs)
	}
	b, err := json.MarshalIndent(struct {
		Result json.RawMessage       `json:"result"`
		Gauges []telemetry.GaugeSnap `json:"gauges"`
	}{res, reg.Snapshot().Gauges}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestEventDrivenByteIdentity is the compatibility lockdown: for every
// fixture, the event core must reproduce testdata/eventcore/<fixture>.json
// byte-for-byte across worker widths 1/2/8. The goldens were first
// written by the fixed-cadence barrier loop (width 1) before it was
// retired, so they pin that elided spans settle to exactly what
// executing every barrier produced. -update rewrites them from the
// current loop at width 1.
func TestEventDrivenByteIdentity(t *testing.T) {
	for name, base := range diffFixtures() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", "eventcore", name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, goldenBytes(t, base, 1), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (regenerate with -update): %v", err)
			}
			for _, w := range []int{1, 2, 8} {
				if got := goldenBytes(t, base, w); string(got) != string(want) {
					t.Fatalf("width=%d: event core diverges from %s\nwant: %s\ngot:  %s",
						w, path, want, got)
				}
			}
		})
	}
}

// TestEventDrivenElides proves the idle and sparse fixtures actually
// exercise elision — a sweep that never elides would vacuously pass
// the identity test — and that the counter is exported under the
// documented name. fleet-idle must elide most of its barriers, so the
// goldens cover long elided spans, not just a few short ones.
func TestEventDrivenElides(t *testing.T) {
	for _, name := range []string{"fleet-idle", "fleet-sparse", "fleet-sparse-scaled"} {
		cfg := diffFixtures()[name]
		reg := telemetry.NewRegistry()
		cfg.Telemetry = reg
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		elided := reg.Counter("aum_cluster_barriers_elided_total").Value()
		barriers := uint64(math.Round(cfg.HorizonS / 0.05)) // default BarrierS
		if elided == 0 {
			t.Fatalf("%s: no barriers elided; the golden suite is not exercising elision", name)
		}
		if name == "fleet-idle" && 2*elided <= barriers {
			t.Fatalf("%s: elided %d of %d barriers, want more than half", name, elided, barriers)
		}
		t.Logf("%s: elided %d of %d barriers", name, elided, barriers)
	}
}

// TestArchetypesEnvelope pins the validated envelope: configs outside
// it (non-round-robin policy, faults, autoscale, roles) must be
// rejected rather than silently produce approximate results.
func TestArchetypesEnvelope(t *testing.T) {
	base := func() Config {
		cfg := diffFixtures()["fleet-sparse"]
		cfg.Archetypes = true
		return cfg
	}
	if _, err := base().withDefaults(); err != nil {
		t.Fatalf("in-envelope config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Policy = AUVAware },
		func(c *Config) { c.Autoscale = &AutoscaleConfig{} },
		func(c *Config) { c.Faults = stormOf(chaos.CrashStorm(2, 1, 48, 3, 7)) },
		func(c *Config) { c.Machines[0].Role = RolePrefill },
		func(c *Config) { c.Source = trace.NewLiveSource() },
		func(c *Config) { c.ReqTrace = reqtrace.New(reqtrace.Config{}) },
	}
	for i, mut := range bad {
		cfg := base()
		mut(&cfg)
		if _, err := cfg.withDefaults(); err == nil {
			t.Fatalf("out-of-envelope mutation %d accepted", i)
		}
	}
}

// TestArchetypesApproximation runs an in-envelope fleet both ways and
// checks the archetype mode's aggregates land within the documented
// tolerance of the exact loop, with the memoization actually firing
// (adoption hits > 0, elided barriers > 0).
func TestArchetypesApproximation(t *testing.T) {
	model := llm.Llama2_7B()
	scen := trace.Chatbot()
	specs := make([]MachineSpec, 12)
	plats := []platform.Platform{platform.GenA(), platform.GenB(), platform.GenC()}
	for i := range specs {
		specs[i] = MachineSpec{Plat: plats[i%3], Mgr: manager.AllAU{}}
	}
	base := Config{
		Machines: specs, Model: model, Scen: scen, Policy: RoundRobin,
		HorizonS: 60, Seed: 13, RatePerS: 1.0,
	}
	exact, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Archetypes = true
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	approx, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hits := reg.Counter("aum_cluster_archetype_hits_total").Value(); hits == 0 {
		t.Fatal("archetype memoization never fired; every machine took the exact path")
	}
	if elided := reg.Counter("aum_cluster_barriers_elided_total").Value(); elided == 0 {
		t.Fatal("no barriers elided in archetype mode")
	}
	within := func(field string, got, want, tol float64) {
		t.Helper()
		if want == 0 && got == 0 {
			return
		}
		if d := math.Abs(got-want) / math.Max(math.Abs(want), 1e-12); d > tol {
			t.Errorf("%s: archetype %v vs exact %v (%.2f%% off, tol %.0f%%)",
				field, got, want, 100*d, 100*tol)
		}
	}
	within("GoodTokensPS", approx.GoodTokensPS, exact.GoodTokensPS, 0.05)
	within("Watts", approx.Watts, exact.Watts, 0.05)
	within("PerfH", approx.PerfH, exact.PerfH, 0.05)
	// State-time accounting counts whole barriers in both loops, so it
	// must match exactly.
	if approx.MachineSecondsActive != exact.MachineSecondsActive {
		t.Errorf("MachineSecondsActive: archetype %v vs exact %v", approx.MachineSecondsActive, exact.MachineSecondsActive)
	}
	if approx.Availability != exact.Availability {
		t.Errorf("Availability: archetype %v vs exact %v", approx.Availability, exact.Availability)
	}
	if approx.Unrouted != exact.Unrouted {
		t.Errorf("Unrouted: archetype %d vs exact %d", approx.Unrouted, exact.Unrouted)
	}
	// Routing is identical in-envelope (same generators, same
	// round-robin cursor), so request counts must match exactly.
	for i, e := range exact.PerNode {
		a := approx.PerNode[i]
		if a.Requests != e.Requests || a.ActiveS != e.ActiveS || a.DowntimeS != e.DowntimeS {
			t.Errorf("node %d requests/active/downtime: archetype %d/%v/%v vs exact %d/%v/%v",
				i, a.Requests, a.ActiveS, a.DowntimeS, e.Requests, e.ActiveS, e.DowntimeS)
		}
	}
}

// TestNextEventAtExact steps every fixture, and a live-source session,
// from one executed barrier to the next: whenever the session is idle,
// NextEventAt must be the start of the next barrier that executes,
// every barrier before it must be elided, and some event source must
// fire at the barrier that executes. The fixtures are busy most of
// the time, so the live session idles on purpose: its arrivals are
// short and few (one exactly at a barrier start, which the barrier
// before emits), and its rate only drives the autoscaler, so a QPS
// surge, a standby's warming and activation, a drain and a straggler's
// injection and revert each fall due while every machine is idle.
func TestNextEventAtExact(t *testing.T) {
	fixtures := diffFixtures()
	// One machine's capacity: the surge breaches the high watermark on
	// one machine and sits between the watermarks on two.
	c := requestCapacity(platform.GenA(), llm.Llama2_7B(), trace.Chatbot())
	fixtures["live-source"] = Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}, Standby: true},
		},
		HorizonS: 12, RatePerS: 0.1 * c,
		QPS:       []RatePoint{{At: 3, RatePerS: 1.2 * c}, {At: 5.5, RatePerS: 0.1 * c}},
		Autoscale: &AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		Faults: &chaos.FleetSchedule{Events: []chaos.FleetEvent{
			{At: 8.0123, Kind: chaos.Straggler, Machine: 0, Duration: 1, Factor: 0.5},
		}},
	}
	for name, cfg := range fixtures {
		t.Run(name, func(t *testing.T) {
			if name == "live-source" {
				src := trace.NewLiveSource()
				for _, at := range []float64{0.237, 1.5, 7.0001, 10} {
					src.Submit(at, 64, 4)
				}
				cfg.Source = src
			}
			sess, err := NewSession(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := sess.s
			horizon := sess.Config().HorizonS
			spans := 0
			for s.now() < horizon {
				next, from, idle := sess.NextEventAt(), s.bi, s.ev.idle()
				if next > s.now() {
					spans++
				}
				if err := sess.StepUntil(math.Min(next, horizon)); err != nil {
					t.Fatal(err)
				}
				if s.ev.deferFrom != from {
					t.Fatalf("barrier %d executed before NextEventAt %v", s.ev.deferFrom-1, next)
				}
				if s.now() >= horizon {
					break
				}
				if math.Float64bits(s.now()) != math.Float64bits(next) {
					t.Fatalf("NextEventAt %v is not a barrier start; stepping stopped at %v", next, s.now())
				}
				pulse := eventSources(s, true)
				if err := sess.Step(); err != nil {
					t.Fatal(err)
				}
				if s.ev.deferFrom != s.bi {
					t.Fatalf("barrier %d at NextEventAt %v was elided", s.bi-1, next)
				}
				if idle && eventSources(s, false) == pulse {
					t.Fatalf("idle barrier %d executed, but no event source fired at it", s.bi-1)
				}
			}
			if spans == 0 {
				t.Fatal("the session was never idle; nothing was checked")
			}
		})
	}
}

// TestSaturatedScalerElides checks that an autoscaler with nothing to
// add holds no barrier due: two active machines and no standby, at
// three times one machine's capacity, breach the high watermark at
// every barrier, but with no draining or standby machine the streak
// never grows, so the idle session elides nearly every barrier instead
// of executing one per HoldBarriers.
func TestSaturatedScalerElides(t *testing.T) {
	c := requestCapacity(platform.GenA(), llm.Llama2_7B(), trace.Chatbot())
	src := trace.NewLiveSource()
	src.Submit(1, 64, 4)
	reg := telemetry.NewRegistry()
	sess, err := NewSession(Config{
		Machines: []MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
		},
		HorizonS: 12, RatePerS: 3 * c, Source: src, Telemetry: reg,
		Autoscale: &AutoscaleConfig{HoldBarriers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.StepUntil(12); err != nil {
		t.Fatal(err)
	}
	const barriers = 240
	elided := reg.Counter("aum_cluster_barriers_elided_total").Value()
	if elided*10 < barriers*9 {
		t.Fatalf("elided %d of %d barriers; a streak with no scale-up candidate keeps barriers due", elided, barriers)
	}
	t.Logf("elided %d of %d barriers", elided, barriers)
}

// sources is what the event sources leave behind: the QPS cursor, scale
// and health events, routed and shed arrivals, the fault injector's
// next event, the retry queue and the autoscaler streaks.
type sources struct {
	qps, events, faults, retries, routed, hi, lo int
	inj                                          float64
}

// eventSources reads the sources; with pulse, the streaks read as an
// elided barrier would leave them (elideBarrier), so the reading
// before a barrier equals the one after it iff no source fired.
func eventSources(s *session, pulse bool) sources {
	st := sources{qps: s.qpsIdx, events: len(s.events), routed: s.shed}
	for _, n := range s.nodes {
		st.routed += n.requests
	}
	if fe := s.fe; fe != nil {
		st.faults, st.retries, st.inj = len(fe.events), len(fe.retryq), fe.inj.NextEventAt()
	}
	if sc := s.scaler; sc != nil {
		st.hi, st.lo = sc.hiStreak, sc.loStreak
		if pulse {
			st.hi, st.lo = 0, 0
			if s.ev.spanHi {
				st.hi = sc.hiStreak + 1
			}
			if s.ev.spanLo {
				st.lo = sc.loStreak + 1
			}
		}
	}
	return st
}

// TestNodeClocksAtBarriers checks that the fleet and its machines keep
// one clock: whenever a node is settled — after every executed barrier,
// and for every node at finish, in the exact core and the archetype
// mode alike — its machine's Now() equals the barrier start bit for
// bit, whether the node stepped, replayed an elided span, idled in
// standby or sat crashed.
func TestNodeClocksAtBarriers(t *testing.T) {
	fixtures := diffFixtures()
	arch := fixtures["fleet-sparse"]
	arch.Archetypes = true
	fixtures["fleet-sparse-archetypes"] = arch
	for name, cfg := range fixtures {
		t.Run(name, func(t *testing.T) {
			v, err := cfg.withDefaults()
			if err != nil {
				t.Fatal(err)
			}
			s, err := newSession(v)
			if err != nil {
				t.Fatal(err)
			}
			check := func(when string) {
				t.Helper()
				for i, n := range s.nodes {
					if got, want := n.M.Now(), s.now(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s, barrier %d: node %d (%s) at %v s, barrier starts at %v s", when, s.bi, i, n.state, got, want)
					}
				}
			}
			check("before the first barrier")
			barriers := int(math.Round(v.HorizonS / v.BarrierS))
			for s.bi < barriers {
				if err := s.advance(); err != nil {
					t.Fatal(err)
				}
				if s.arch == nil && s.ev.deferFrom == s.bi {
					check("after an executed barrier")
				}
			}
			if _, err := s.finishAt(v.HorizonS); err != nil {
				t.Fatal(err)
			}
			check("at finish")
		})
	}
}
