package experiments

import "aum/internal/scenario"

func init() {
	register(Experiment{ID: "fleet", Paper: "Section VIII (ext)", Title: "Fleet-scale serving: balancing, autoscaling, and disaggregation", Run: runFleet})
}

// runFleet exercises the full fleet layer over one heterogeneous
// cluster: the three balancing policies head-to-head under overload,
// the AUV-aware autoscaler riding a QPS surge, and a disaggregated
// prefill/decode split paying real KV-transfer costs. The fleets are
// the embedded fleet-hetero, fleet-autoscale and fleet-disagg
// scenario files.
func runFleet(l *Lab, o Options) (*Table, error) {
	var rows []scenarioRow
	for _, pol := range []string{"round-robin", "least-queued", "auv-aware"} {
		rows = append(rows, scenarioRow{pol, "fleet-hetero", func(s *scenario.Spec) { s.Fleet.Policy = pol }})
	}
	rows = append(rows,
		scenarioRow{"auv+autoscale", "fleet-autoscale", nil},
		scenarioRow{"disagg-pd", "fleet-disagg", nil})
	results, err := l.runScenarioRows(rows, o, nil)
	if err != nil {
		return nil, err
	}

	t := &Table{ID: "fleet", Title: "Fleet of 2x GenA + GenB serving chatbot (exclusive AU use)",
		Columns: []string{"eff", "goodtok/s", "TPOT-guar", "imbalance", "watts", "mach-s", "handoffs"}}
	for i, r := range rows {
		res := results[i]
		t.AddRow(r.label, res.Eff, res.GoodTokensPS, res.TPOTGuar, res.Imbalance,
			res.Watts, res.MachineSecondsActive, float64(res.Handoffs))
	}
	t.AddNote("auv-aware routes by profiled AU capacity headroom; autoscale warms standby GenAs only while the surge holds")
	return t, nil
}
