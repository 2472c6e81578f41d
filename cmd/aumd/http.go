package main

import (
	"encoding/json"
	"log"
	"net"
	"net/http"
	"net/http/pprof"

	"aum"
)

// route is one row of the aumd route table: a versioned /v1 path, the
// method it accepts ("" accepts any), and its handler.
type route struct {
	method string
	path   string
	h      http.HandlerFunc
}

// routeTable builds the complete versioned route set:
//
//	GET  /v1/metrics           Prometheus text exposition (0.0.4)
//	GET  /v1/events            the structured event ring as JSON
//	GET  /v1/requests          recent per-request causal traces, JSON
//	GET  /v1/slo               blame table and SLO burn-rate timeline
//	GET  /v1/healthz           liveness + fleet availability probe
//	POST /v1/chat/completions  OpenAI-compatible completion (-gateway)
//	GET  /v1/models            the model zoo (-gateway)
//
// Every request snapshots the registry, so responses are internally consistent even
// while the simulation is mutating metrics. The rt tracer may be nil;
// /v1/requests and /v1/slo then serve empty reports. gw is nil outside
// -gateway mode; with a gateway its readiness probe (which folds in
// the same availability threshold) replaces the plain healthz.
func routeTable(reg *aum.TelemetryRegistry, rt *aum.RequestTracer, degradedBelow float64, gw *aum.Gateway) []route {
	healthz := healthzHandler(reg, degradedBelow)
	if gw != nil {
		healthz = gw.ReadyHandler
	}
	routes := []route{
		{method: http.MethodGet, path: "/v1/metrics", h: metricsHandler(reg)},
		{method: http.MethodGet, path: "/v1/events", h: eventsHandler(reg)},
		{method: http.MethodGet, path: "/v1/requests", h: requestsHandler(rt)},
		{method: http.MethodGet, path: "/v1/slo", h: sloHandler(rt)},
		{method: http.MethodGet, path: "/v1/healthz", h: healthz},
	}
	if gw != nil {
		routes = append(routes,
			route{method: http.MethodPost, path: "/v1/chat/completions", h: gw.ChatCompletionsHandler},
			route{method: http.MethodGet, path: "/v1/models", h: gw.ModelsHandler},
		)
	}
	return routes
}

// newMux mounts a route table: method guards answer 405 in the shared
// error envelope, unknown routes (the pre-/v1 paths among them) get
// the 404 envelope, and the pprof endpoints ride along unversioned
// (the Go tooling expects them at /debug/pprof).
func newMux(routes []route) *http.ServeMux {
	mux := http.NewServeMux()
	for _, r := range routes {
		r := r
		mux.HandleFunc(r.path, func(w http.ResponseWriter, req *http.Request) {
			if r.method != "" && req.Method != r.method {
				aum.WriteHTTPError(w, http.StatusMethodNotAllowed, aum.ErrTypeMethod, "use "+r.method)
				return
			}
			r.h(w, req)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", aum.HTTPNotFound)
	return mux
}

// serveTelemetry serves the versioned route table over HTTP for the
// lifetime of the listener. gw is nil outside -gateway mode.
func serveTelemetry(ln net.Listener, reg *aum.TelemetryRegistry, rt *aum.RequestTracer, degradedBelow float64, gw *aum.Gateway) {
	if err := http.Serve(ln, newMux(routeTable(reg, rt, degradedBelow, gw))); err != nil {
		log.Printf("aumd: http server: %v", err)
	}
}

func metricsHandler(reg *aum.TelemetryRegistry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := aum.WritePrometheus(w, reg.Snapshot()); err != nil {
			log.Printf("aumd: /v1/metrics: %v", err)
		}
	}
}

func eventsHandler(reg *aum.TelemetryRegistry) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		s := reg.Snapshot()
		w.Header().Set("Content-Type", "application/json")
		resp := struct {
			Events  []aum.ScopedEvent `json:"events"`
			Dropped uint64            `json:"dropped"`
		}{Events: s.Events, Dropped: s.DroppedEvents}
		if resp.Events == nil {
			resp.Events = []aum.ScopedEvent{}
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			log.Printf("aumd: /v1/events: %v", err)
		}
	}
}

func requestsHandler(rt *aum.RequestTracer) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		resp := struct {
			Requests []aum.RequestTrace `json:"requests"`
		}{Requests: rt.Recent(32)}
		if resp.Requests == nil {
			resp.Requests = []aum.RequestTrace{}
		}
		if err := json.NewEncoder(w).Encode(resp); err != nil {
			log.Printf("aumd: /v1/requests: %v", err)
		}
	}
}

func sloHandler(rt *aum.RequestTracer) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(rt.Report()); err != nil {
			log.Printf("aumd: /v1/slo: %v", err)
		}
	}
}

// healthzHandler answers the liveness probe. A plain single-machine
// run always reports ok; a fleet run (the aum_fleet_availability
// gauge is present) reports degraded with 503 once availability drops
// below the threshold, so an orchestrator's health check sees
// fleet-level outages, not just process liveness. The comparison
// lives in aum.FleetDegraded, shared with the gateway readiness
// probe; a threshold <= 0 disables the degraded state.
func healthzHandler(reg *aum.TelemetryRegistry, degradedBelow float64) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		if reason, degraded := aum.FleetDegraded(reg.Snapshot(), degradedBelow); degraded {
			aum.WriteHTTPError(w, http.StatusServiceUnavailable, aum.ErrTypeUnavailable, "degraded: "+reason)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	}
}
