package core

import (
	"context"
	"fmt"

	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/roofline"
	"aum/internal/runner"
	"aum/internal/trace"
	"aum/internal/workload"
)

// UsageLevel is AUM's three-way classification of AU usage
// (Section VI-B1), driving which region an operator belongs in.
type UsageLevel int

const (
	// UsageNone runs no AU work (shared applications).
	UsageNone UsageLevel = iota
	// UsageLow issues AU work below the saturation knee (decode).
	UsageLow
	// UsageHigh saturates the AU (prefill).
	UsageHigh
)

// String returns the Table III label of the level.
func (u UsageLevel) String() string {
	switch u {
	case UsageHigh:
		return "High"
	case UsageLow:
		return "Low"
	}
	return "None"
}

// ARI thresholds separating usage levels, in FLOPs/byte. Set from the
// server-level distribution of operator intensities: prefill-style
// operators land in the thousands, decode-style in the tens.
const (
	ARIHighThreshold = 200.0
	ARILowThreshold  = 1.0
)

// ClassifyARI maps an operator's arithmetic intensity to a usage level.
func ClassifyARI(ari float64) UsageLevel {
	switch {
	case ari >= ARIHighThreshold:
		return UsageHigh
	case ari >= ARILowThreshold:
		return UsageLow
	default:
		return UsageNone
	}
}

// ClassifyPlan classifies a serving iteration plan via its ARI,
// cross-checked against the closed-form QKV intensity of
// Section VI-B1.
func ClassifyPlan(p llm.IterationPlan) UsageLevel {
	ari := p.ARI()
	var qkv float64
	if p.Phase == llm.Prefill {
		qkv = roofline.QKVARI(p.GEMMRep.K, p.Batch, p.SeqLen)
	} else {
		qkv = roofline.QKVARI(p.GEMMRep.K, p.Batch, 1)
	}
	// The blended indicator weighs the measured plan intensity with
	// the analytic operator intensity.
	return ClassifyARI((ari + qkv) / 2)
}

// sigmaScale shrinks the request-length variance during profiling: the
// profiler characterizes configurations with a controlled workload,
// like the paper's dedicated-node runs, so the buckets reflect
// configuration differences rather than trace tails.
const sigmaScale = 0.85

// ProfilerOptions control the offline sweep cost/fidelity trade-off.
type ProfilerOptions struct {
	// Reps is the number of repetitions per bucket (the paper uses 10).
	Reps int
	// HorizonS is the simulated duration of one profiling run.
	HorizonS float64
	Seed     uint64
	// Workers bounds the bucket-sweep fan-out (<= 0 = GOMAXPROCS). The
	// width never changes the resulting model: every rep's seed is an
	// explicit function of (Seed, bucket, rep).
	Workers int
}

func (o ProfilerOptions) withDefaults() ProfilerOptions {
	if o.Reps <= 0 {
		o.Reps = 10
	}
	if o.HorizonS <= 0 {
		o.HorizonS = 10
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// staticManager pins one (division, config) pair for a profiling run.
type staticManager struct {
	div Division
	cfg ResourceConfig
}

func (s staticManager) Name() string                  { return "profiler-static" }
func (s staticManager) Interval() float64             { return 0 }
func (s staticManager) Tick(*colo.Env, float64) error { return nil }

func (s staticManager) Setup(e *colo.Env) error {
	sp := s.div.Split(e.Plat.Cores)
	if err := manager.PlaceLLM(e, sp, manager.COSLLM, manager.COSLLM); err != nil {
		return err
	}
	if e.HasBE() && sp.SharedCores() > 0 {
		if err := e.AddBE(machine.Placement{CoreLo: sp.NoLo, CoreHi: sp.NoHi, SMTSlot: 0, COS: manager.COSBE}); err != nil {
			return err
		}
	}
	return ApplyConfig(e, s.cfg)
}

// ApplyConfig programs one resource configuration through RDT: the
// shared class gets the top BEWays ways and a BEMBA bandwidth cap; the
// AU class keeps the remaining ways unthrottled.
func ApplyConfig(e *colo.Env, cfg ResourceConfig) error {
	ways := e.Plat.LLC.Ways
	be := cfg.BEWays
	if be > ways-2 {
		be = ways - 2
	}
	if be < 1 {
		be = 1
	}
	if err := e.RDT.AllocateWays(manager.COSLLM, 0, ways-1-be); err != nil {
		return err
	}
	if err := e.RDT.AllocateWays(manager.COSBE, ways-be, ways-1); err != nil {
		return err
	}
	if err := e.RDT.SetMBA(manager.COSBE, cfg.BEMBA); err != nil {
		return err
	}
	return e.RDT.SetMBA(manager.COSLLM, 100)
}

// Profile runs the background AU profiler for one platform / model /
// scenario / co-runner combination: every division x config pair is
// executed Reps times and aggregated into the AUV Model. With the
// default options this is 3 x 5 x 10 = 150 runs per co-runner, i.e. the
// paper's ~450 executions across the three sharing applications.
func Profile(plat platform.Platform, model llm.Model, scen trace.Scenario, be workload.Profile, opt ProfilerOptions) (*Model, error) {
	opt = opt.withDefaults()
	divs := Divisions()
	cfgs := Configs(plat.LLC.Ways)

	m := &Model{
		Platform:  plat.Name,
		LLMModel:  model.Name,
		Scenario:  scen.Name,
		CoRunner:  be.Name,
		Divisions: divs,
		Configs:   cfgs,
		Buckets:   make([]Bucket, len(divs)*len(cfgs)),
		Gamma:     be.RevenuePrice,
	}

	profScen := scen
	profScen.SigmaInput *= sigmaScale
	profScen.SigmaOutput *= sigmaScale

	// Buckets are independent dedicated-node runs; sweep them across the
	// runner pool. Every rep's seed is an explicit function of (root
	// seed, bucket, rep), so the sweep is deterministic at any width.
	type job struct{ di, ci int }
	jobs := make([]job, 0, len(divs)*len(cfgs))
	for di := range divs {
		for ci := range cfgs {
			jobs = append(jobs, job{di, ci})
		}
	}
	err := runner.ForEach(context.Background(), len(jobs), runner.Options{Workers: opt.Workers},
		func(_ context.Context, j int) error {
			di, ci := jobs[j].di, jobs[j].ci
			b := m.Bucket(di, ci)
			b.Division, b.Config = di, ci
			for rep := 0; rep < opt.Reps; rep++ {
				res, err := colo.Run(colo.Config{
					Plat:     plat,
					Model:    model,
					Scen:     profScen,
					BE:       &be,
					Manager:  staticManager{div: divs[di], cfg: cfgs[ci]},
					HorizonS: opt.HorizonS,
					WarmupS:  opt.HorizonS / 5,
					Seed:     opt.Seed + uint64(rep)*1013 + uint64(di*31+ci),
				})
				if err != nil {
					return fmt.Errorf("core: profiling d%d c%d rep%d: %w", di, ci, rep, err)
				}
				accumulate(b, res)
			}
			finalize(b, opt.Reps)
			return nil
		})
	if err != nil {
		return nil, err
	}
	m.ProfileRuns = len(jobs) * opt.Reps
	return m, nil
}

func accumulate(b *Bucket, r colo.Result) {
	b.FreqH += r.MeanGHzPrefill
	b.FreqL += r.MeanGHzDecode
	b.FreqN += r.MeanGHzBE
	b.ThrH += r.PerfH
	b.ThrL += r.PerfL
	b.ThrN += r.PerfN
	b.TTFTAvg += r.MeanTTFT
	b.TPOTAvg += r.MeanTPOT
	b.TPOTTail += r.TailTPOT
	b.TTFTTail += r.TailTTFT
	b.Watts += r.Watts
	b.Runs++
}

func finalize(b *Bucket, reps int) {
	inv := 1 / float64(reps)
	b.FreqH *= inv
	b.FreqL *= inv
	b.FreqN *= inv
	b.ThrH *= inv
	b.ThrL *= inv
	b.ThrN *= inv
	b.TTFTAvg *= inv
	b.TTFTTail *= inv
	b.TPOTAvg *= inv
	b.TPOTTail *= inv
	b.Watts *= inv
}
