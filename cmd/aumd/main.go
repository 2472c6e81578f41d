// Command aumd runs the Runtime AU Controller as a daemon over a live
// co-location (on the simulated machine) and streams its decisions —
// the system-component role the paper's prototype plays in production
// (Section VII-A1).
//
//	aumd -auv auv_model.json -scenario cb -corunner SPECjbb -duration 60
//
// Every reporting interval it renders a status line from the telemetry
// registry (DESIGN.md §7): the serving SLO status, the current
// processor division, the CAT/MBA grant chosen by the collision-aware
// tuner, and the watchdog state. With -http the same registry is
// served live under the versioned /v1 prefix — /v1/metrics
// (Prometheus text), /v1/events (JSON), /v1/requests and /v1/slo
// (per-request causal traces and blame/burn-rate reports, JSON), and
// /v1/healthz — for the duration of the run. Every error, including
// the 404 for an unversioned path, is the shared JSON envelope
// {"error":{"type","message"}}.
//
// With -fleet the daemon instead simulates a heterogeneous cluster
// under the selected -policy, riding a QPS surge with the AUV-aware
// autoscaler (DESIGN.md §8); the status line and /v1/metrics then
// carry the aum_fleet_* series:
//
//	aumd -fleet -policy auv-aware -duration 30 -http 127.0.0.1:9090
//
// With -gateway the daemon becomes a live serving front-end
// (DESIGN.md §13): an open-ended fleet session advances at -warp
// times wall time and OpenAI-compatible completions are served from
// it over POST /v1/chat/completions (SSE or JSON), with the model zoo
// on GET /v1/models and readiness on /v1/healthz:
//
//	aumd -gateway -warp 100 -http 127.0.0.1:8080
package main

import (
	"flag"
	"fmt"
	"log"
	"net"

	"aum"
)

// snapshotReporter wraps the AUM controller to render per-interval
// status lines while delegating every decision. Unlike a bespoke
// printf wrapper, every number comes from the telemetry registry, so
// the console, /metrics, and the trace all agree by construction.
type snapshotReporter struct {
	inner  aum.Manager
	model  *aum.AUVModel
	reg    *aum.TelemetryRegistry
	everyS float64
	nextAt float64
}

func (r *snapshotReporter) Name() string      { return r.inner.Name() }
func (r *snapshotReporter) Interval() float64 { return r.inner.Interval() }

func (r *snapshotReporter) Setup(e *aum.Env) error { return r.inner.Setup(e) }

func (r *snapshotReporter) Tick(e *aum.Env, now float64) error {
	if err := r.inner.Tick(e, now); err != nil {
		return err
	}
	if now >= r.nextAt {
		r.nextAt = now + r.everyS
		fmt.Println(renderStatus(r.reg.Snapshot(), r.model, now))
	}
	return nil
}

// renderStatus formats one console status line purely from a registry
// snapshot. It is a function of the snapshot (plus the AUV model for
// division names) so tests can drive it without a live run.
func renderStatus(s aum.TelemetrySnapshot, model *aum.AUVModel, now float64) string {
	divName := "?"
	if d, ok := s.GaugeValue("aum_ctrl_division"); ok {
		if i := int(d); i >= 0 && i < len(model.Divisions) {
			divName = model.Divisions[i].Name
		}
	}
	ways, _ := s.GaugeValue("aum_ctrl_be_ways")
	mba, _ := s.GaugeValue("aum_ctrl_be_mba_percent")
	delta, _ := s.GaugeValue("aum_ctrl_delta")
	batch, _ := s.GaugeValue("aum_serve_decode_batch")
	switches, _ := s.CounterValue("aum_ctrl_division_switches_total")
	return fmt.Sprintf("t=%5.1fs div=%-11s beWays=%2.0f beMBA=%3.0f%% ttftG=%4.1f%% tpotG=%4.1f%% batch=%2.0f delta=%.2f switches=%d wd=%s",
		now, divName, ways, mba,
		100*sloRatio(s, "aum_serve_ttft_met_total", "aum_serve_prefills_total"),
		100*sloRatio(s, "aum_serve_tpot_met_total", "aum_serve_decode_tokens_total"),
		batch, delta, switches, watchdogStatus(s))
}

// sloRatio returns met/total from two counters, 1.0 when nothing has
// been measured yet (matching serve.Stats semantics: no sample, no
// violation).
func sloRatio(s aum.TelemetrySnapshot, met, total string) float64 {
	m, _ := s.CounterValue(met)
	t, _ := s.CounterValue(total)
	if t == 0 {
		return 1
	}
	return float64(m) / float64(t)
}

// watchdogStatus renders the SLO watchdog from its gauges: "off" when
// the watchdog never reported (not enabled), "ok" when armed but not
// engaged, and SAFE(hold=N,trips=M) while parked in the safe division.
func watchdogStatus(s aum.TelemetrySnapshot) string {
	active, ok := s.GaugeValue("aum_ctrl_watchdog_active")
	if !ok {
		return "off"
	}
	if active == 0 {
		return "ok"
	}
	hold, _ := s.GaugeValue("aum_ctrl_watchdog_hold_ticks")
	trips, _ := s.CounterValue("aum_ctrl_watchdog_trips_total")
	return fmt.Sprintf("SAFE(hold=%.0f,trips=%d)", hold, trips)
}

func main() {
	var (
		auvPath  = flag.String("auv", "auv_model.json", "AUV model from aumprof")
		scenName = flag.String("scenario", "cb", "cb | cc | sm")
		beName   = flag.String("corunner", "", "co-runner (default: the model's)")
		duration = flag.Float64("duration", 60, "simulated seconds")
		report   = flag.Float64("report", 1, "status interval in seconds")
		seed     = flag.Uint64("seed", 42, "root random seed")
		httpAddr = flag.String("http", "", "serve the /v1 API on this address (e.g. 127.0.0.1:9090)")
		watchdog = flag.Bool("watchdog", false, "enable the SLO watchdog safe mode")
		degraded = flag.Float64("degraded-below", 0.95, "/healthz reports degraded (503) when fleet availability drops below this (<=0 disables)")
		fleet    = flag.Bool("fleet", false, "run a heterogeneous fleet instead of one machine (no AUV model needed)")
		policy   = flag.String("policy", "auv-aware", "fleet balance policy: round-robin | least-queued | auv-aware")
		gwMode   = flag.Bool("gateway", false, "serve an OpenAI-compatible live gateway from a simulated fleet (requires -http)")
		warp     = flag.Float64("warp", 100, "gateway time-warp: simulated seconds per wall-clock second")
	)
	flag.Parse()

	if *gwMode {
		runGatewayDaemon(*warp, *report, *seed, *httpAddr, *degraded)
		return
	}
	if *fleet {
		runFleetDaemon(*policy, *duration, *report, *seed, *httpAddr, *degraded)
		return
	}

	auv, err := aum.LoadAUVModel(*auvPath)
	if err != nil {
		log.Fatal(err)
	}
	plat, err := aum.PlatformByName(auv.Platform)
	if err != nil {
		log.Fatal(err)
	}
	model, err := aum.ModelByName(auv.LLMModel)
	if err != nil {
		log.Fatal(err)
	}
	scen, err := aum.ScenarioByName(*scenName)
	if err != nil {
		log.Fatal(err)
	}
	if *beName == "" {
		*beName = auv.CoRunner
	}
	be, err := aum.CoRunnerByName(*beName)
	if err != nil {
		log.Fatal(err)
	}

	reg := aum.NewTelemetryRegistry()
	rt := aum.NewRequestTracer(aum.ReqTraceConfig{Telemetry: reg})

	// Bind before the run so a bad -http address fails fast instead of
	// after simulating the whole horizon.
	if *httpAddr != "" {
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("aumd: telemetry on http://%s/v1/metrics\n", ln.Addr())
		go serveTelemetry(ln, reg, rt, *degraded, nil)
	}

	inner, err := aum.NewAUM(auv, aum.ControllerOptions{Watchdog: *watchdog, Telemetry: reg})
	if err != nil {
		log.Fatal(err)
	}
	mgr := &snapshotReporter{inner: inner, model: auv, reg: reg, everyS: *report}

	fmt.Printf("aumd: %s serving %s under %s, sharing with %s\n",
		plat.Name, model.Name, scen.Name, be.Name)
	res, err := aum.Run(aum.RunConfig{
		Plat: plat, Model: model, Scen: scen, BE: &be,
		Manager: mgr, HorizonS: *duration, Seed: *seed,
		Telemetry: reg, ReqTrace: rt,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfinal: %.1f tok/s decode (%.1f%% in SLO), %.0f %s units/s harvested, %.0f W, efficiency %.4f\n",
		res.RawPerfL, 100*res.TPOTGuarantee, res.PerfN, be.Name, res.Watts, res.Eff)

	if *httpAddr != "" {
		fmt.Printf("aumd: run finished; still serving telemetry on %s (interrupt to exit)\n", *httpAddr)
		select {}
	}
}
