// Package workload provides the non-LLM application models: the
// best-effort co-runners of Section V-A (Compute, OLAP, SPECjbb), the
// characterization workloads of Figure 7 (mcf, ads, a GEMM
// microkernel, a power stressor), and the AU-accelerated applications
// of Figure 4 (Faiss, Vocoder, DeepFM).
//
// Every model is an analytic rate workload: an unconstrained per-core
// rate scaled by frequency sensitivity and SMT share, then limited by
// granted memory bandwidth through its cache miss curve. The
// calibration targets are the paper's *relative* sensitivities — which
// resource hurts whom — rather than absolute application scores.
package workload

import (
	"math"

	"aum/internal/cache"
	"aum/internal/machine"
	"aum/internal/membw"
	"aum/internal/power"
	"aum/internal/rng"
	"aum/internal/topdown"
)

// Profile is the static characterization of an analytic workload.
type Profile struct {
	Name string

	// PerCoreRate is the work-unit rate of one core at RefGHz with
	// unconstrained resources.
	PerCoreRate float64
	RefGHz      float64
	// FreqSens is the exponent of the frequency scaling: 1 for
	// compute-bound, near 0 for memory-latency-bound work.
	FreqSens float64

	// Memory behaviour: every work unit moves ColdBytes from DRAM
	// unconditionally and ReuseBytes filtered by the LLC miss curve.
	ColdBytes  float64
	ReuseBytes float64
	Curve      cache.MissCurve
	// LatencySens scales how strongly memory-queueing delays (link
	// congestion) slow the workload down.
	LatencySens float64
	// SMTSens is the exponent applied to the SMT compute share:
	// 1 = proportional (simple integer work fills the sibling's stall
	// slots well), >1 = super-linear collapse (latency-bounded scores
	// like SPECjbb's critical-jOPS crater when a busy sibling steals
	// ports and private caches).
	SMTSens float64

	// Power class and unit utilization.
	Class power.Class
	Util  float64

	// Top-down shape.
	BadSpec       float64
	FEParam       float64 // frontend-bound fraction when unstalled
	SerializeFrac float64
	MemPath       [4]float64
	DRAMBWShare   float64

	// Burstiness: amplitude of a slow random-walk modulation of the
	// offered intensity (SPECjbb's fluctuating resource demand).
	BurstAmp    float64
	BurstPeriod float64

	// RevenuePrice is the gamma price of one work unit in the
	// efficiency objective (Section VII-A1).
	RevenuePrice float64
}

// App is a running instance of a profile.
type App struct {
	prof  Profile
	orig  Profile // pre-flip characterization (see FlipPhase)
	rng   *rng.Stream
	burst float64 // current modulation in [1-amp, 1+amp]
	phase float64
	// held counts the steps left before the burst walk next advances
	// (see advanceBurst); 0 means the next step is a quantum boundary.
	held int

	flipped bool

	// dirty marks an externally-injected behaviour change (FlipPhase)
	// that the next full Step has not yet observed; it blocks
	// quiescent replay until then (see CanQuiesce).
	dirty bool

	// Memos of the two transcendental terms of a step: the miss ratio
	// at an LLC size and the frequency factor at a clock ratio. They
	// depend on the profile only through Curve and FreqSens, which no
	// phase changes. Each keeps two entries because the machine asks at
	// two environments per step: Demand at the provisional one, Step at
	// the granted one.
	missMemo memo2
	freqMemo memo2
}

// memo2 caches a pure function of one float64 at its two most recently
// used arguments, keyed by their exact bits.
type memo2 struct {
	key  [2]uint64
	val  [2]float64
	set  [2]bool
	last int // slot used most recently
}

// lookup returns the memoized value at x, if x is an entry.
func (m *memo2) lookup(x float64) (float64, bool) {
	k := math.Float64bits(x)
	for i := range m.key {
		if m.set[i] && m.key[i] == k {
			m.last = i
			return m.val[i], true
		}
	}
	return 0, false
}

// store records v at x in place of the least recently used entry and
// returns v.
func (m *memo2) store(x, v float64) float64 {
	i := 1 - m.last
	m.key[i], m.val[i], m.set[i], m.last = math.Float64bits(x), v, true, i
	return v
}

// burstQuantum is how many steps a bursty profile holds its burst
// between walk advances: 50 ms at machine.DT, the controller interval.
const burstQuantum = 50

// New instantiates a profile with its own random stream.
func New(p Profile, seed uint64) *App {
	return &App{prof: p, orig: p, rng: rng.New(seed), burst: 1}
}

// Name implements machine.Workload.
func (a *App) Name() string { return a.prof.Name }

// Profile returns the static characterization.
func (a *App) Profile() Profile { return a.prof }

// FlipPhase toggles the application into (and back out of) an alternate
// behavioural phase: a markedly more memory-hungry, higher-utilization
// regime than the one the AUV profiler characterized. A flip therefore
// invalidates the profiled bucket the controller is operating — exactly
// the post-profiling drift Section VII-D names as AUM's limitation.
func (a *App) FlipPhase() {
	a.dirty = true
	if a.flipped {
		a.prof, a.flipped = a.orig, false
		return
	}
	p := a.orig
	p.ColdBytes *= 2.5
	p.ReuseBytes *= 1.5
	p.Util = math.Min(1, p.Util*1.3)
	p.LatencySens *= 1.5
	p.DRAMBWShare = math.Min(1, p.DRAMBWShare*1.5)
	a.prof, a.flipped = p, true
}

// PhaseFlipped reports whether the alternate phase is active.
func (a *App) PhaseFlipped() bool { return a.flipped }

// bytesPerUnit returns the DRAM traffic per work unit under the LLC
// allocation.
func (a *App) bytesPerUnit(llcMB float64) float64 {
	miss, ok := a.missMemo.lookup(llcMB)
	if !ok {
		miss = a.missMemo.store(llcMB, a.prof.Curve.MissRatio(llcMB))
	}
	return a.prof.ColdBytes + a.prof.ReuseBytes*miss
}

// unconstrainedRate returns the compute-side rate under env.
func (a *App) unconstrainedRate(env machine.Env) float64 {
	share := env.ComputeShare
	if share <= 0 || share > 1 {
		share = 1
	}
	if a.prof.SMTSens > 1 {
		share = math.Pow(share, a.prof.SMTSens)
	}
	f := env.GHz / a.prof.RefGHz
	if f <= 0 {
		return 0
	}
	scale, ok := a.freqMemo.lookup(f)
	if !ok {
		scale = a.freqMemo.store(f, math.Pow(f, a.prof.FreqSens))
	}
	return a.prof.PerCoreRate * float64(env.Cores) * scale * share * a.burst
}

// Demand implements machine.Workload.
func (a *App) Demand(env machine.Env) machine.Demand {
	r := a.unconstrainedRate(env)
	return machine.Demand{
		Class: a.prof.Class,
		Util:  math.Min(1.25, a.prof.Util*a.burst),
		BWGBs: r * a.bytesPerUnit(env.LLCMB) / 1e9,
	}
}

// Step implements machine.Workload.
func (a *App) Step(env machine.Env, now float64) machine.Usage {
	a.dirty = false
	if a.prof.BurstAmp > 0 {
		if a.held == 0 {
			a.advanceBurst()
		}
		a.held--
	}

	r0 := a.unconstrainedRate(env)
	bpu := a.bytesPerUnit(env.LLCMB)
	rate := r0
	memLimited := false
	if bpu > 0 && env.BWGBs > 0 {
		rMem := env.BWGBs * 1e9 / bpu
		if rMem < rate {
			rate = rMem
			memLimited = true
		}
	}
	// Link congestion inflates memory latency for latency-sensitive
	// work even when bandwidth itself is not the limit.
	if a.prof.LatencySens > 0 {
		rate /= 1 + a.prof.LatencySens*(membw.QueuePenalty(env.LinkUtil)-1)
	}

	work := rate * machine.DT
	memStallFrac := 0.0
	if r0 > 0 {
		memStallFrac = 1 - rate/r0
	}
	retiring := 0.12 * rate / math.Max(r0, 1e-9)
	if a.prof.Class == power.Scalar && !memLimited {
		retiring = 0.45 * rate / math.Max(r0, 1e-9)
	}
	fe := a.prof.FEParam * (1 - memStallFrac)
	bd := topdown.Compose(retiring, a.prof.BadSpec, fe,
		1-clamp01(0.3+0.7*memStallFrac), a.prof.SerializeFrac,
		a.prof.MemPath, a.prof.DRAMBWShare)

	return machine.Usage{
		Work:      work,
		DRAMBytes: work * bpu,
		Util:      math.Min(1.25, a.prof.Util*a.burst) * clamp01(rate/math.Max(r0, 1e-9)+0.3),
		Breakdown: bd,
	}
}

// advanceBurst starts a quantum of the burst's bounded random walk. It
// draws the quantum's burstQuantum per-step phase increments one at a
// time, in the order a per-step walk would, so the random stream and
// the phase at every boundary match that walk. The burst is set from
// the phase after the first increment and held for the whole quantum.
// The step that advances estimated its demand at the old burst, so it
// marks the app dirty: the next step must run in full.
func (a *App) advanceBurst() {
	period := a.prof.BurstPeriod
	if period <= 0 {
		period = 1
	}
	for i := 0; i < burstQuantum; i++ {
		a.phase += machine.DT / period * (0.5 + a.rng.Float64())
		if i == 0 {
			a.burst = 1 + a.prof.BurstAmp*math.Sin(2*math.Pi*a.phase)
		}
	}
	a.held = burstQuantum
	a.dirty = true
}

// CanQuiesce implements machine.Quiescer. An app's Step is a pure
// function of the (unchanged) environment while its burst is held, so
// every step repeats exactly unless the step is a quantum boundary,
// follows the step that advanced the burst, or follows a chaos
// injection that changed the app's behaviour (the last two set dirty).
func (a *App) CanQuiesce() bool {
	return !a.dirty && (a.prof.BurstAmp <= 0 || a.held > 0)
}

// AdvanceQuiesced implements machine.Quiescer: a quiescent step of a
// bursty app counts down its held quantum; it mutates nothing else.
func (a *App) AdvanceQuiesced() {
	if a.prof.BurstAmp > 0 {
		a.held--
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
