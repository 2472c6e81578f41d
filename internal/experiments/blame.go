package experiments

import (
	"aum/internal/cluster"
	"aum/internal/reqtrace"
)

func init() {
	register(Experiment{ID: "blame", Paper: "Section VIII (ext)", Title: "Critical-path blame attribution under a crash-rate sweep", Run: runBlame})
}

// runBlame runs the fleetchaos fixture with the per-request causal
// tracer attached (it records every request) and tabulates where each request's
// latency went: the fleet-wide blame vector, normalized over the total
// attributed seconds of both SLO sides. The clean row is dominated by
// queue/compute/membw; as the crash rate rises the mass visibly shifts
// toward backoff and recompute — the cost of fault tolerance, itemized.
// The disaggregated row's KV handoff crosses the default link, so the
// kvlink category picks up nonzero mass.
func runBlame(l *Lab, o Options) (*Table, error) {
	rows := []scenarioRow{stormRow(0), stormRow(2), stormRow(4), {"disagg-pd", "fleet-disagg", nil}}
	tracers := make([]*reqtrace.Tracer, len(rows))
	_, err := l.runScenarioRows(rows, o, func(i int, cfg *cluster.Config) {
		tracers[i] = reqtrace.New(reqtrace.Config{})
		cfg.ReqTrace = tracers[i]
	})
	if err != nil {
		return nil, err
	}

	cats := reqtrace.Categories()
	cols := make([]string, 0, len(cats)+2)
	for _, c := range cats {
		cols = append(cols, c+"%")
	}
	cols = append(cols, "burn-p99", "sampled")
	t := &Table{ID: "blame", Title: "Blame attribution, 4x GenA + 2 standby under seeded crash storms (chatbot, autoscaled)",
		Columns: cols}
	reports := make([]reqtrace.BlameReport, len(rows))
	for i, r := range rows {
		rep := tracers[i].Report()
		reports[i] = rep
		total := rep.TTFTTotalS + rep.TPOTTotalS
		row := make([]float64, 0, len(cats)+2)
		for _, cb := range rep.Categories {
			share := 0.0
			if total > 0 {
				share = 100 * (cb.TTFTS + cb.TPOTS) / total
			}
			row = append(row, share)
		}
		row = append(row, rep.Burn.TTFTP99, float64(rep.Sampled))
		t.AddRow(r.label, row...)
	}
	t.AddNote("shares are percent of total attributed seconds across both SLO sides; burn-p99 is the p99 TTFT burn rate over %0.fs windows", reports[0].Burn.WindowS)
	return t, nil
}
