package experiments

func init() {
	register(Experiment{ID: "fleetchaos", Paper: "Section VIII (ext)", Title: "Fleet fault tolerance: availability and goodput under a crash-rate sweep", Run: runFleetChaos})
}

// runFleetChaos sweeps seeded crash storms over the chaos-standby
// fleet, which keeps a standby pool: each outage harvests the dead
// machine's in-flight requests for re-dispatch, re-routes its in-flight
// KV handoffs, and lets the autoscaler backfill the lost capacity. The
// table shows graceful degradation — availability and goodput fall
// smoothly with the crash rate instead of collapsing, while the
// retry/recompute columns show what the fault tolerance cost.
func runFleetChaos(l *Lab, o Options) (*Table, error) {
	rows := []scenarioRow{stormRow(0), stormRow(1), stormRow(2), stormRow(4)}
	results, err := l.runScenarioRows(rows, o, nil)
	if err != nil {
		return nil, err
	}

	t := &Table{ID: "fleetchaos", Title: "4x GenA + 2 standby under seeded crash storms (chatbot, autoscaled)",
		Columns: []string{"avail", "mttr-s", "goodtok/s", "ttft-p99", "redisp", "recomp", "failed", "watts"}}
	for i, r := range rows {
		res := results[i]
		t.AddRow(r.label, res.Availability, res.MTTRs, res.GoodTokensPS,
			res.TTFTp99, float64(res.Redispatched), float64(res.Recomputed),
			float64(res.FailedRequests), res.Watts)
	}
	t.AddNote("each storm outage lasts horizon/8; harvested requests retry with capped jittered backoff, in-flight KV re-routes to surviving sinks")
	return t, nil
}
