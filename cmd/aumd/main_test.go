package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"aum"
)

func testModel() *aum.AUVModel {
	return &aum.AUVModel{Divisions: []aum.AUVDivision{
		{Name: "au-lean"}, {Name: "balanced"}, {Name: "au-rich"},
	}}
}

// TestRenderStatus drives the status renderer with a synthetic
// registry: every field of the line must come from the snapshot.
func TestRenderStatus(t *testing.T) {
	reg := aum.NewTelemetryRegistry()
	reg.Gauge("aum_ctrl_division").Set(1)
	reg.Gauge("aum_ctrl_be_ways").Set(4)
	reg.Gauge("aum_ctrl_be_mba_percent").Set(50)
	reg.Gauge("aum_ctrl_delta").Set(1.25)
	reg.Gauge("aum_serve_decode_batch").Set(7)
	for i := 0; i < 10; i++ {
		reg.Counter("aum_serve_prefills_total").Inc()
		reg.Counter("aum_serve_decode_tokens_total").Inc()
	}
	for i := 0; i < 9; i++ {
		reg.Counter("aum_serve_ttft_met_total").Inc()
	}
	for i := 0; i < 5; i++ {
		reg.Counter("aum_serve_tpot_met_total").Inc()
	}
	reg.Counter("aum_ctrl_division_switches_total").Inc()

	line := renderStatus(reg.Snapshot(), testModel(), 3.5)
	for _, want := range []string{
		"t=  3.5s", "div=balanced", "beWays= 4", "beMBA= 50%",
		"ttftG=90.0%", "tpotG=50.0%", "batch= 7", "delta=1.25",
		"switches=1", "wd=off",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("status line missing %q:\n%s", want, line)
		}
	}
}

// TestRenderStatusEmpty: before any sample the renderer reports 100%
// SLO goodness (no sample, no violation) and never panics on missing
// metrics.
func TestRenderStatusEmpty(t *testing.T) {
	line := renderStatus(aum.NewTelemetryRegistry().Snapshot(), testModel(), 0)
	for _, want := range []string{"ttftG=100.0%", "tpotG=100.0%", "div=?", "wd=off"} {
		if !strings.Contains(line, want) {
			t.Errorf("empty-snapshot line missing %q:\n%s", want, line)
		}
	}
}

// TestWatchdogStatus covers the three watchdog renderings.
func TestWatchdogStatus(t *testing.T) {
	reg := aum.NewTelemetryRegistry()
	if got := watchdogStatus(reg.Snapshot()); got != "off" {
		t.Errorf("no gauge: wd=%s, want off", got)
	}
	reg.Gauge("aum_ctrl_watchdog_active").Set(0)
	if got := watchdogStatus(reg.Snapshot()); got != "ok" {
		t.Errorf("inactive: wd=%s, want ok", got)
	}
	reg.Gauge("aum_ctrl_watchdog_active").Set(1)
	reg.Gauge("aum_ctrl_watchdog_hold_ticks").Set(40)
	reg.Counter("aum_ctrl_watchdog_trips_total").Inc()
	reg.Counter("aum_ctrl_watchdog_trips_total").Inc()
	if got := watchdogStatus(reg.Snapshot()); got != "SAFE(hold=40,trips=2)" {
		t.Errorf("active: wd=%s, want SAFE(hold=40,trips=2)", got)
	}
}

// TestHealthzDegraded drives the /healthz handler through the fleet
// availability states: ok without the gauge (single-machine run), ok
// at or above the threshold, degraded (503) below it, and always ok
// when the threshold is disabled.
func TestHealthzDegraded(t *testing.T) {
	probe := func(reg *aum.TelemetryRegistry, below float64) (int, string) {
		rec := httptest.NewRecorder()
		healthzHandler(reg, below)(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code, rec.Body.String()
	}

	reg := aum.NewTelemetryRegistry()
	if code, body := probe(reg, 0.95); code != http.StatusOK || body != "ok\n" {
		t.Errorf("no gauge: %d %q, want 200 ok", code, body)
	}

	reg.Gauge("aum_fleet_availability").Set(0.97)
	if code, _ := probe(reg, 0.95); code != http.StatusOK {
		t.Errorf("availability above threshold: %d, want 200", code)
	}

	reg.Gauge("aum_fleet_availability").Set(0.80)
	code, body := probe(reg, 0.95)
	if code != http.StatusServiceUnavailable {
		t.Errorf("availability below threshold: %d, want 503", code)
	}
	for _, want := range []string{"degraded", "0.8000", "0.9500"} {
		if !strings.Contains(body, want) {
			t.Errorf("degraded body missing %q:\n%s", want, body)
		}
	}

	if code, _ := probe(reg, 0); code != http.StatusOK {
		t.Errorf("threshold disabled: %d, want 200", code)
	}
}

// TestRouteTable pins the versioned API surface: every /v1 endpoint
// answers directly, unknown routes — the retired pre-/v1 paths among
// them — get the shared 404 envelope, and method guards answer 405 in
// the same envelope.
func TestRouteTable(t *testing.T) {
	reg := aum.NewTelemetryRegistry()
	rt := aum.NewRequestTracer(aum.ReqTraceConfig{Telemetry: reg})
	srv := httptest.NewServer(newMux(routeTable(reg, rt, 0.95, nil)))
	defer srv.Close()
	client := srv.Client()

	for _, p := range []string{"/v1/metrics", "/v1/events", "/v1/requests", "/v1/slo", "/v1/healthz"} {
		resp, err := client.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", p, resp.StatusCode)
		}
	}

	checkEnvelope := func(resp *http.Response, wantStatus int, wantType string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status %d, want %d", resp.StatusCode, wantStatus)
		}
		var env struct {
			Error aum.HTTPError `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("error body is not the JSON envelope: %v", err)
		}
		if env.Error.Type != wantType || env.Error.Message == "" {
			t.Fatalf("envelope = %+v, want type %q with a message", env.Error, wantType)
		}
	}

	for _, p := range []string{"/no/such/route", "/metrics", "/events", "/requests", "/slo", "/healthz"} {
		resp, err := client.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		checkEnvelope(resp, http.StatusNotFound, aum.ErrTypeNotFound)
	}

	resp, err := client.Post(srv.URL+"/v1/metrics", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(resp, http.StatusMethodNotAllowed, aum.ErrTypeMethod)
}

// TestHealthzEnvelope pins the degraded 503 to the shared envelope
// (type service_unavailable), the satellite-6 contract shared with
// the gateway readiness probe.
func TestHealthzEnvelope(t *testing.T) {
	reg := aum.NewTelemetryRegistry()
	reg.Gauge("aum_fleet_availability").Set(0.5)
	rec := httptest.NewRecorder()
	healthzHandler(reg, 0.95)(rec, httptest.NewRequest("GET", "/v1/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	var env struct {
		Error aum.HTTPError `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatalf("degraded body is not the JSON envelope: %v", err)
	}
	if env.Error.Type != aum.ErrTypeUnavailable {
		t.Fatalf("envelope type %q, want %q", env.Error.Type, aum.ErrTypeUnavailable)
	}
}

// TestRenderFleetStatus drives the -fleet status renderer from a
// synthetic registry: every field must come from the aum_fleet_* series.
func TestRenderFleetStatus(t *testing.T) {
	reg := aum.NewTelemetryRegistry()
	reg.Gauge("aum_fleet_active_machines").Set(2)
	reg.Gauge("aum_fleet_powered_machines").Set(3)
	reg.Gauge("aum_fleet_offered_rate_per_s").Set(4.5)
	reg.Gauge("aum_fleet_queue_len").Set(12)
	reg.Gauge("aum_fleet_utilization").Set(0.87)
	for i := 0; i < 42; i++ {
		reg.Counter("aum_fleet_requests_routed_total").Inc()
	}
	line := renderFleetStatus(reg.Snapshot(), 7.5)
	for _, want := range []string{
		"t=  7.5s", "active=2/3", "rate=4.5/s", "util= 87%", "queue= 12", "routed=42",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("fleet status line missing %q:\n%s", want, line)
		}
	}
}
