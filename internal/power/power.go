// Package power models the package power and frequency behaviour that
// creates the paper's Variation-2 (compulsory frequency interference):
//
//   - license caps: cores running wide-vector or tile instructions cap
//     their frequency below the scalar all-core turbo (Figure 6a's
//     prefill at ~2.5 GHz vs decode at ~3.1 GHz on GenA);
//   - package TDP: when total power exceeds the limit the governor
//     throttles, preferring AU-heavy regions (the cascaded reductions
//     of Figure 6a's stressor experiments);
//   - heat accumulation: a compact cluster of high-power shared cores
//     triggers an additional throttle step, reproducing the abrupt
//     mid-range frequency drops of Figure 6b.
//
// The governor works on regions — groups of cores with a common
// activity class — because AUM (and real per-region uncore controls)
// set frequency at region granularity.
package power

import (
	"math"

	"aum/internal/platform"
)

// Class is the activity class of a core or region, ordered by how
// aggressively it draws power and how low its license cap is.
type Class int

const (
	// Idle draws only leakage.
	Idle Class = iota
	// Scalar runs conventional integer/FP work at full turbo.
	Scalar
	// AVXHeavy sustains AVX-512 activity.
	AVXHeavy
	// AMXHeavy sustains AMX tile activity.
	AMXHeavy
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Idle:
		return "idle"
	case Scalar:
		return "scalar"
	case AVXHeavy:
		return "avx"
	case AMXHeavy:
		return "amx"
	}
	return "unknown"
}

// Calibration constants for the per-core dynamic power model
// p = IdleCoreW + util * k(class) * (f/base)^powerExp. The k values are
// set so that (a) a full-socket AMX prefill on GenA lands at the TDP at
// its 2.5 GHz license cap, (b) a full-socket memory-bound decode stays
// under TDP at 3.1 GHz, and (c) a full-socket scalar power virus sits
// right at TDP at all-core turbo (Section IV-B measurements).
const (
	kScalar  = 3.2
	kAVX     = 3.2
	kAMX     = 5.1
	powerExp = 2.5

	// MinGHz is the governor's floor.
	MinGHz = 1.2

	// Throttle priorities: higher means throttled earlier when over
	// TDP. AU-enabled regions shed frequency before scalar regions,
	// matching Figure 6a (AU-disabled cores see no cascaded
	// reduction).
	prioAMX    = 1.60
	prioAVX    = 1.30
	prioScalar = 1.00

	// Heat-accumulation heuristic (Figure 6b): a region of
	// high-power cores small enough to cluster on the die but large
	// enough to defeat neighbour heat-spreading takes extra throttle
	// steps.
	hotspotMinCores  = 12
	hotspotMaxCores  = 24
	hotspotPerCoreW  = 5.2
	hotspotMinUtil   = 1.05 // only SMT-combined (shared) cores qualify
	hotspotExtraStep = 2
)

func classK(c Class) float64 {
	switch c {
	case AMXHeavy:
		return kAMX
	case AVXHeavy:
		return kAVX
	case Scalar:
		return kScalar
	default:
		return 0
	}
}

func classPrio(c Class) float64 {
	switch c {
	case AMXHeavy:
		return prioAMX
	case AVXHeavy:
		return prioAVX
	case Scalar:
		return prioScalar
	default:
		return 0
	}
}

// LicenseCap returns the license frequency ceiling for a class on p.
func LicenseCap(p *platform.Platform, c Class) float64 {
	switch c {
	case AMXHeavy:
		return p.License.AMXHeavy
	case AVXHeavy:
		return p.License.AVXHeavy
	case Scalar:
		return p.License.Scalar
	default:
		return p.License.Scalar
	}
}

// CoreWatts returns the modelled power of one core of class c running
// at util (fraction of cycles with the unit active) and ghz.
func CoreWatts(p *platform.Platform, c Class, util, ghz float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1.6 { // SMT-combined utilization can near-double core power
		util = 1.6
	}
	if c == Idle || util == 0 || ghz <= 0 {
		return p.IdleCoreW
	}
	scale := p.PowerScale
	if scale <= 0 {
		scale = 1
	}
	return p.IdleCoreW + util*scale*classK(c)*math.Pow(ghz/p.BaseGHz, powerExp)
}

// powFactor memoizes math.Pow(ghz/base, powerExp). Every hit is
// bit-identical to the direct computation.
func (g *Governor) powFactor(ghz float64) float64 {
	i := g.powMemo.slot(ghz)
	if g.powMemo.ok[i] && g.powMemo.ghz[i] == ghz {
		return g.powMemo.pf[i]
	}
	pf := math.Pow(ghz/g.plat.BaseGHz, powerExp)
	g.powMemo.ghz[i], g.powMemo.pf[i], g.powMemo.ok[i] = ghz, pf, true
	return pf
}

// CoreWatts is the memoized equivalent of the package-level CoreWatts
// on the governor's platform, returning identical values.
func (g *Governor) CoreWatts(c Class, util, ghz float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1.6 {
		util = 1.6
	}
	if c == Idle || util == 0 || ghz <= 0 {
		return g.plat.IdleCoreW
	}
	scale := g.plat.PowerScale
	if scale <= 0 {
		scale = 1
	}
	return g.plat.IdleCoreW + util*scale*classK(c)*g.powFactor(ghz)
}

// RegionLoad describes one frequency region for a governor solve.
type RegionLoad struct {
	Cores int
	Class Class   // dominant activity class of the region
	Util  float64 // average unit utilization across the region's cores
}

// Solution is the outcome of a governor solve. FreqGHz aliases a
// per-governor scratch buffer that the next Solve on the same governor
// overwrites; callers that retain frequencies across solves must copy
// them out.
type Solution struct {
	FreqGHz      []float64 // per region, in input order
	PackageWatts float64
	Throttled    bool // true when the TDP forced reductions below license caps
	Hotspot      bool // true when the heat-accumulation rule fired
}

// Governor computes region frequencies under license caps, the package
// TDP, and the heat-accumulation heuristic. It is stateless between
// solves except for a slow thermal average used for hysteresis.
type Governor struct {
	plat       platform.Platform
	thermalAvg float64 // exponentially averaged package power
	powMemo    powTable

	freqs []float64 // Solve scratch; Solution.FreqGHz aliases it

	// Thermal record of the last Solve, consumed by ReplayThermal: the
	// package power before any near-TDP reduction and whether that
	// reduction fired.
	lastPreWatts float64
	lastFired    bool
}

// powTable is a fixed-size open-addressed memo of frequency power
// factors. Governor solves only evaluate frequencies quantized to the
// platform step, so a few dozen distinct values cover a whole run; a
// colliding slot is simply overwritten (the memo is a pure cache).
type powTable struct {
	ghz [64]float64
	pf  [64]float64
	ok  [64]bool
}

func (t *powTable) slot(ghz float64) int {
	return int((math.Float64bits(ghz) * 0x9e3779b97f4a7c15) >> 58)
}

// NewGovernor returns a governor for the platform.
func NewGovernor(p platform.Platform) *Governor {
	return &Governor{plat: p}
}

// Platform returns the governed platform.
func (g *Governor) Platform() platform.Platform { return g.plat }

// quantize floors ghz to the platform frequency step.
func (g *Governor) quantize(ghz float64) float64 {
	step := g.plat.FreqStepGHz
	if step <= 0 {
		step = 0.1
	}
	return math.Floor(ghz/step+1e-9) * step
}

// packageWatts sums the modelled power of all regions plus uncore and
// the leakage of unassigned (idle) cores.
func (g *Governor) packageWatts(regions []RegionLoad, freqs []float64) float64 {
	total := g.plat.UncoreWatts
	used := 0
	for i, r := range regions {
		total += float64(r.Cores) * g.CoreWatts(r.Class, r.Util, freqs[i])
		used += r.Cores
	}
	if idle := g.plat.Cores - used; idle > 0 {
		total += float64(idle) * g.plat.IdleCoreW
	}
	return total
}

// Solve assigns a frequency to every region. dt advances the thermal
// average; pass 0 for a one-shot query.
func (g *Governor) Solve(regions []RegionLoad, dt float64) Solution {
	if cap(g.freqs) < len(regions) {
		g.freqs = make([]float64, len(regions))
	}
	freqs := g.freqs[:len(regions)]
	for i, r := range regions {
		f := LicenseCap(&g.plat, r.Class)
		// Lightly-utilized AU regions recover part of the license
		// gap: a decode region at low AMX duty does not pay the full
		// AMX license penalty (Figure 6a shows decode near the AVX
		// cap despite issuing some AMX work).
		if r.Class == AMXHeavy && r.Util < 0.35 {
			f = LicenseCap(&g.plat, AVXHeavy)
		}
		freqs[i] = g.quantize(f)
	}

	step := g.plat.FreqStepGHz
	if step <= 0 {
		step = 0.1
	}
	throttled := false
	// TDP solve: step down the highest-priority region until the
	// package fits. Priority decays as a region's frequency falls, so
	// sustained overload spreads across classes instead of starving
	// the AU region.
	for iter := 0; iter < 512; iter++ {
		if g.packageWatts(regions, freqs) <= g.plat.TDPWatts {
			break
		}
		best, bestPrio := -1, 0.0
		for i, r := range regions {
			if r.Class == Idle || r.Cores == 0 || freqs[i] <= MinGHz {
				continue
			}
			rel := freqs[i] / LicenseCap(&g.plat, r.Class)
			// Squared decay: a heavily-throttled AU region stops
			// being the preferred victim, spreading sustained
			// overload onto scalar regions instead of starving AU.
			prio := classPrio(r.Class) * rel * rel
			if prio > bestPrio {
				best, bestPrio = i, prio
			}
		}
		if best < 0 {
			break
		}
		freqs[best] = g.quantize(freqs[best] - step)
		if freqs[best] < MinGHz {
			freqs[best] = MinGHz
		}
		throttled = true
	}

	// Heat accumulation (Figure 6b): compact clusters of high-power
	// cores take extra steps.
	hotspot := false
	for i, r := range regions {
		if r.Cores < hotspotMinCores || r.Cores > hotspotMaxCores {
			continue
		}
		if r.Util < hotspotMinUtil {
			continue
		}
		if g.CoreWatts(r.Class, r.Util, freqs[i]) < hotspotPerCoreW {
			continue
		}
		hotspot = true
		freqs[i] = g.quantize(freqs[i] - float64(hotspotExtraStep)*step)
		if freqs[i] < MinGHz {
			freqs[i] = MinGHz
		}
	}

	watts := g.packageWatts(regions, freqs)
	g.lastPreWatts = watts
	fired := false
	if dt > 0 {
		// Slow thermal average with ~2 s time constant; sustained
		// near-TDP operation sheds one extra step everywhere.
		alpha := dt / (dt + 2.0)
		g.thermalAvg += alpha * (watts - g.thermalAvg)
		if g.thermalAvg > 0.97*g.plat.TDPWatts {
			fired = true
			for i := range freqs {
				if regions[i].Class == Idle {
					continue
				}
				f := g.quantize(freqs[i] - step)
				if f >= MinGHz {
					freqs[i] = f
				}
			}
			watts = g.packageWatts(regions, freqs)
			throttled = true
		}
	}
	g.lastFired = fired
	return Solution{FreqGHz: freqs, PackageWatts: watts, Throttled: throttled, Hotspot: hotspot}
}

// SkipThermal advances the thermal average k replayed steps at once in
// closed form: after k EMA updates toward the (load-dependent only,
// hence constant) lastPreWatts, the average is
//
//	preWatts + (thermalAvg - preWatts) * (1-alpha)^k.
//
// The EMA converges monotonically toward lastPreWatts, so the near-TDP
// predicate can flip at most once across the span; the skip commits
// only when both the first and last step land on the same side as the
// last Solve — otherwise the governor is untouched and the caller must
// fall back to per-step advancement. The closed form differs from k
// iterated updates only in floating-point rounding; it belongs to the
// cluster's approximate archetype path, never the byte-identical one.
func (g *Governor) SkipThermal(dt float64, k int) bool {
	if dt <= 0 || k <= 0 {
		return true
	}
	alpha := dt / (dt + 2.0)
	first := g.thermalAvg + alpha*(g.lastPreWatts-g.thermalAvg)
	last := g.lastPreWatts + (g.thermalAvg-g.lastPreWatts)*math.Pow(1-alpha, float64(k))
	thresh := 0.97 * g.plat.TDPWatts
	if (first > thresh) != g.lastFired || (last > thresh) != g.lastFired {
		return false
	}
	g.thermalAvg = last
	return true
}

// ThermalRecord exposes the last Solve's thermal inputs — the
// pre-reduction package power and whether the near-TDP reduction fired
// — so an identically-specced machine can adopt them (AdoptThermal).
func (g *Governor) ThermalRecord() (preWatts float64, fired bool) {
	return g.lastPreWatts, g.lastFired
}

// AdoptThermal seeds the thermal record from an identically-constructed
// donor governor. A machine that has never solved has no lastPreWatts;
// adopting the donor's lets SkipThermal advance its idle prefix in
// closed form. Cluster archetype memoization only calls this for
// machines with identical platform, task layout, and zero steps taken.
func (g *Governor) AdoptThermal(preWatts float64, fired bool) {
	g.lastPreWatts = preWatts
	g.lastFired = fired
}

// ReplayThermal advances the thermal average exactly as one more Solve
// over the same region loads would — the pre-reduction package power is
// load-dependent only, so it equals lastPreWatts — without re-running
// the solve. It commits only when the near-TDP threshold outcome
// matches the last Solve's (so the full solve would have produced a
// bit-identical Solution) and reports whether it committed; on false
// the governor is left untouched and the caller must run a full Solve.
func (g *Governor) ReplayThermal(dt float64) bool {
	if dt <= 0 {
		return true
	}
	alpha := dt / (dt + 2.0)
	next := g.thermalAvg + alpha*(g.lastPreWatts-g.thermalAvg)
	fired := next > 0.97*g.plat.TDPWatts
	if fired != g.lastFired {
		return false
	}
	g.thermalAvg = next
	return true
}
