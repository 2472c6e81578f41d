package main

import (
	"fmt"
	"log"
	"net"

	"aum"
)

// runFleetDaemon simulates a small heterogeneous fleet — an always-on
// GenA and GenB plus a standby GenA the autoscaler may power up — under
// the chosen balance policy, with a QPS surge in the middle third of
// the horizon. Everything it prints comes from the aum_fleet_* series
// in the telemetry registry, so the console and /metrics agree.
func runFleetDaemon(policyName string, duration, report float64, seed uint64, httpAddr string, degradedBelow float64) {
	policy, err := aum.ParseBalancePolicy(policyName)
	if err != nil {
		log.Fatal(err)
	}
	platB, err := aum.PlatformByName("GenB")
	if err != nil {
		log.Fatal(err)
	}
	reg := aum.NewTelemetryRegistry()
	rt := aum.NewRequestTracer(aum.ReqTraceConfig{Telemetry: reg})
	if httpAddr != "" {
		ln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("aumd: telemetry on http://%s/v1/metrics\n", ln.Addr())
		go serveTelemetry(ln, reg, rt, degradedBelow, nil)
	}

	nextAt := 0.0
	cfg := aum.FleetConfig{
		Machines: []aum.MachineSpec{
			{Plat: aum.GenA(), Mgr: aum.NewExclusive()},
			{Plat: platB, Mgr: aum.NewExclusive()},
			{Plat: aum.GenA(), Mgr: aum.NewExclusive(), Standby: true},
		},
		Policy:   policy,
		HorizonS: duration,
		RatePerS: 2.0,
		QPS: []aum.RatePoint{
			{At: duration / 3, RatePerS: 4.5},
			{At: 2 * duration / 3, RatePerS: 2.0},
		},
		Autoscale: &aum.AutoscaleConfig{HoldBarriers: 2, WarmupDelayS: 1},
		Seed:      seed,
		Telemetry: reg,
		ReqTrace:  rt,
		Progress: func(now float64) {
			if now >= nextAt {
				nextAt = now + report
				fmt.Println(renderFleetStatus(reg.Snapshot(), now))
			}
		},
	}
	fmt.Printf("aumd: fleet of %d machines under %s balancing, surge to %.1f req/s at t=%.0fs\n",
		len(cfg.Machines), cfg.Policy, cfg.QPS[0].RatePerS, cfg.QPS[0].At)
	res, err := aum.RunFleet(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nfinal: %.0f good tok/s fleet-wide, %.0f W, imbalance %.3f, %.0f of %.0f machine-seconds powered\n",
		res.GoodTokensPS, res.Watts, res.Imbalance, res.MachineSecondsActive, float64(len(cfg.Machines))*duration)
	for _, ev := range res.ScaleEvents {
		fmt.Printf("  t=%6.2fs  %-8s %s\n", ev.At, ev.Action, ev.Machine)
	}

	if httpAddr != "" {
		fmt.Printf("aumd: run finished; still serving telemetry on %s (interrupt to exit)\n", httpAddr)
		select {}
	}
}

// renderFleetStatus formats one fleet status line purely from the
// aum_fleet_* gauges of a registry snapshot.
func renderFleetStatus(s aum.TelemetrySnapshot, now float64) string {
	active, _ := s.GaugeValue("aum_fleet_active_machines")
	powered, _ := s.GaugeValue("aum_fleet_powered_machines")
	rate, _ := s.GaugeValue("aum_fleet_offered_rate_per_s")
	queue, _ := s.GaugeValue("aum_fleet_queue_len")
	util, _ := s.GaugeValue("aum_fleet_utilization")
	routed, _ := s.CounterValue("aum_fleet_requests_routed_total")
	return fmt.Sprintf("t=%5.1fs active=%.0f/%.0f rate=%.1f/s util=%3.0f%% queue=%3.0f routed=%d",
		now, active, powered, rate, 100*util, queue, routed)
}
