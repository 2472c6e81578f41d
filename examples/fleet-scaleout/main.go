// Fleet scale-out: run a heterogeneous cluster through a traffic surge
// with AUV-aware balancing and autoscaling, then a disaggregated
// prefill/decode split — the Section VIII extension, entirely through
// the public facade.
//
//	go run ./examples/fleet-scaleout
package main

import (
	"fmt"
	"log"

	"aum"
)

func main() {
	platA := aum.GenA()
	platB, err := aum.PlatformByName("GenB")
	if err != nil {
		log.Fatal(err)
	}
	scen, err := aum.ScenarioByName("cb")
	if err != nil {
		log.Fatal(err)
	}

	// 1. A fast GenB always on, two GenAs on standby. The QPS trace
	// surges to 4 req/s in the middle third of the run; the autoscaler
	// warms standbys while utilization holds above its watermark and
	// drains them afterwards.
	res, err := aum.RunFleet(aum.FleetConfig{
		Machines: []aum.MachineSpec{
			{Plat: platB, Mgr: aum.NewExclusive()},
			{Plat: platA, Mgr: aum.NewExclusive(), Standby: true},
			{Plat: platA, Mgr: aum.NewExclusive(), Standby: true},
		},
		Model:     aum.Llama2_7B(),
		Scen:      scen,
		Policy:    aum.AUVAware,
		HorizonS:  30,
		WarmupS:   5,
		RatePerS:  1.0,
		QPS:       []aum.RatePoint{{At: 10, RatePerS: 4}, {At: 20, RatePerS: 1}},
		Autoscale: &aum.AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		Seed:      7,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("autoscaled fleet (%s): goodput %.0f tok/s, %.0f W, %.0f machine-seconds (always-on would be %d)\n",
		res.Policy, res.GoodTokensPS, res.Watts, res.MachineSecondsActive, 3*30)
	for _, ev := range res.ScaleEvents {
		fmt.Printf("  t=%5.2fs  %-8s %s\n", ev.At, ev.Action, ev.Machine)
	}

	// 2. Disaggregation: GenA's AMX handles prefill, GenB's HBM handles
	// decode, and every prefilled request ships its KV cache across the
	// link.
	disagg, err := aum.RunFleet(aum.FleetConfig{
		Machines: []aum.MachineSpec{
			{Plat: platA, Mgr: aum.NewExclusive(), Role: aum.RolePrefill},
			{Plat: platB, Mgr: aum.NewExclusive(), Role: aum.RoleDecode},
		},
		Model: aum.Llama2_7B(), Scen: scen,
		HorizonS: 30, Seed: 7, RatePerS: 1.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("disaggregated pair: goodput %.0f tok/s, %d KV handoffs (%.1f MB, mean transfer %.1f ms)\n",
		disagg.GoodTokensPS, disagg.Handoffs, disagg.KVBytes/1e6, 1e3*disagg.MeanKVDelayS)
	for _, n := range disagg.PerNode {
		fmt.Printf("  %-8s %-7s routed=%3d handoffsIn=%3d %.0f W\n",
			n.Name, n.Role, n.Requests, n.HandoffsIn, n.Watts)
	}
}
