// Package roofline models kernel execution time on AU-enabled cores.
//
// The paper's three-dimensional AU variations all originate from how a
// kernel's arithmetic intensity interacts with the unit peaks and the
// memory system (Section IV-A3): prefill-shaped GEMMs
// (8192x4096x22016) are compute-bound and reach ~40 TFLOPS on GenA,
// while decode-shaped GEMMs (16x4096x22016) stream the full weight
// matrix per call and collapse to ~3.9 TFLOPS. This package reproduces
// that behaviour with a calibrated roofline: time = max(compute,
// memory) plus a bounded overlap penalty.
package roofline

import (
	"fmt"
	"math"

	"aum/internal/platform"
)

// Unit identifies which functional unit executes a kernel's FLOPs.
type Unit int

const (
	// UnitScalar uses the conventional FP pipes only.
	UnitScalar Unit = iota
	// UnitAVX uses the AVX-512 vector units.
	UnitAVX
	// UnitAMX uses the AMX tile matrix unit.
	UnitAMX
)

// String returns the conventional name of the unit.
func (u Unit) String() string {
	switch u {
	case UnitScalar:
		return "scalar"
	case UnitAVX:
		return "AVX-512"
	case UnitAMX:
		return "AMX"
	}
	return fmt.Sprintf("Unit(%d)", int(u))
}

// Calibration constants. These are the only free parameters of the
// kernel model; they are set so that the llama2-7b GEMM throughputs on
// GenA match Section IV-A3 (40.57 TFLOPS prefill, 3.87 TFLOPS decode)
// and the AVX/AMX crossover for small M matches the paper's observation
// that vector-size operations prefer AVX.
const (
	// amxEffMax is the fraction of the Table I AMX peak that a
	// well-blocked large GEMM achieves in practice (xFasterTransformer
	// on SPR reaches ~20% of the headline 206.4 TFLOPS).
	amxEffMax = 0.28
	// amxMSat controls how quickly tile efficiency ramps with the GEMM
	// M dimension (tiles hold at most 16 rows; small M wastes rows and
	// loses B-matrix reuse).
	amxMSat = 8.0
	// avxEffMax is the achievable fraction of AVX-512 peak for
	// well-vectorized kernels.
	avxEffMax = 0.60
	// scalarEffMax is the achievable fraction of the scalar FP peak.
	scalarEffMax = 0.85
	// overlapKappa is the fraction of the shorter of (compute, memory)
	// phases that cannot be hidden under the longer one.
	overlapKappa = 0.12
	// launchOverheadS is the fixed software overhead per kernel launch
	// (threading fan-out, tile configuration).
	launchOverheadS = 4e-6
)

// GEMM describes a matrix multiplication C[M][N] += A[M][K]*B[K][N].
type GEMM struct {
	M, K, N    int
	DTypeBytes int // element size; 2 for BF16
}

// Flops returns the floating-point operations of the GEMM.
func (g GEMM) Flops() float64 {
	return 2 * float64(g.M) * float64(g.K) * float64(g.N)
}

// WeightBytes returns the size of the B (weight) matrix.
func (g GEMM) WeightBytes() float64 {
	return float64(g.K) * float64(g.N) * float64(g.DTypeBytes)
}

// ActivationBytes returns the size of the A and C matrices.
func (g GEMM) ActivationBytes() float64 {
	return float64(g.M) * (float64(g.K) + float64(g.N)) * float64(g.DTypeBytes)
}

// ARI returns the arithmetic intensity in FLOPs per byte, the
// usage-aware indicator AUM's profiler uses to classify operators
// (Section VI-B1).
func (g GEMM) ARI() float64 {
	b := g.WeightBytes() + g.ActivationBytes()
	if b == 0 {
		return 0
	}
	return g.Flops() / b
}

// QKVARI computes the closed-form arithmetic intensity of the QKV
// mapping from Section VI-B1: 6/(1/d + 3/(B*L)) for prefill and
// 6/(1/d + 3/B) for decode, with model dimension d, batch B, and input
// length L (L=1 reduces the prefill form to the decode form).
func QKVARI(d, batch, seqLen int) float64 {
	if d <= 0 || batch <= 0 || seqLen <= 0 {
		return 0
	}
	return 6 / (1/float64(d) + 3/(float64(batch)*float64(seqLen)))
}

// TileEfficiency returns the fraction of AMX peak achievable for a GEMM
// with the given M dimension. M >= 16 fills tiles; beyond that,
// efficiency keeps rising with B-matrix reuse until it saturates.
func TileEfficiency(m int) float64 {
	if m <= 0 {
		return 0
	}
	return amxEffMax * float64(m) / (float64(m) + amxMSat)
}

// unitEfficiency returns the achievable peak fraction for a GEMM on u.
func unitEfficiency(g GEMM, u Unit) float64 {
	switch u {
	case UnitAMX:
		return TileEfficiency(g.M)
	case UnitAVX:
		return avxEffMax
	default:
		return scalarEffMax
	}
}

// PeakGFLOPS returns the aggregate achievable compute rate for a GEMM
// on unit u over cores cores at frequency ghz, in GFLOP/s.
//
// On shared-AU topologies (platform.AUClusterSize > 1, the SME-style
// layout of Section VIII) the AMX peak is pooled: a cluster of N cores
// owns one matrix unit, so matrix throughput scales with the number of
// clusters touched rather than the number of cores.
func PeakGFLOPS(p *platform.Platform, g GEMM, u Unit, cores int, ghz float64) float64 {
	if cores <= 0 || ghz <= 0 {
		return 0
	}
	var perCore float64
	effCores := cores
	switch u {
	case UnitAMX:
		perCore = p.AMXPeakGFLOPSPerCore(ghz)
		if p.AUClusterSize > 1 {
			// One AU per cluster, with the per-core peak expressing
			// the unit's own throughput.
			effCores = (cores + p.AUClusterSize - 1) / p.AUClusterSize
			perCore *= float64(p.AUClusterSize)
			// Pooling still loses against private units once a
			// cluster's cores contend for issue slots.
			perCore *= 0.55
		}
	case UnitAVX:
		perCore = p.AVXPeakGFLOPSPerCore(ghz)
	default:
		perCore = p.ScalarPeakGFLOPSPerCore(ghz)
	}
	return perCore * float64(effCores) * unitEfficiency(g, u) * parallelEfficiency(cores)
}

// parallelEfficiency models the sub-linear scaling of a data-parallel
// GEMM across cores (synchronization and partition imbalance).
func parallelEfficiency(cores int) float64 {
	if cores <= 1 {
		return 1
	}
	return 1 / (1 + 0.0025*float64(cores-1))
}

// Env is the execution environment a kernel runs under: the cores,
// frequency, granted DRAM bandwidth, and compute share (reduced below 1
// when an SMT sibling competes for execution ports).
type Env struct {
	Plat         *platform.Platform // read-only; never write through it
	Cores        int
	GHz          float64
	BWGBs        float64 // granted DRAM bandwidth for this kernel
	ComputeShare float64 // 1.0 when alone on the physical cores
}

// Time is the decomposed execution time of one kernel invocation.
type Time struct {
	ComputeS  float64 // pure compute phase
	MemoryS   float64 // pure memory-streaming phase
	OverheadS float64 // launch overhead
	TotalS    float64 // roofline-combined wall time
}

// Cost returns the execution time of a kernel performing flops FLOPs on
// unit u (with GEMM shape g controlling unit efficiency) while moving
// dramBytes to/from memory under env.
func Cost(g GEMM, u Unit, flops, dramBytes float64, env Env) Time {
	share := env.ComputeShare
	if share <= 0 || share > 1 {
		share = 1
	}
	peak := PeakGFLOPS(env.Plat, g, u, env.Cores, env.GHz) * 1e9 * share
	var comp float64
	if flops > 0 {
		if peak <= 0 {
			return Time{TotalS: math.Inf(1), ComputeS: math.Inf(1)}
		}
		comp = flops / peak
	}
	var mem float64
	if dramBytes > 0 {
		if env.BWGBs <= 0 {
			return Time{TotalS: math.Inf(1), MemoryS: math.Inf(1)}
		}
		mem = dramBytes / (env.BWGBs * 1e9)
	}
	total := math.Max(comp, mem) + overlapKappa*math.Min(comp, mem) + launchOverheadS
	return Time{ComputeS: comp, MemoryS: mem, OverheadS: launchOverheadS, TotalS: total}
}

// GEMMCost is Cost specialized to a full GEMM: all FLOPs on unit u and
// dramBytes supplied by the caller (who owns the cache model).
func GEMMCost(g GEMM, u Unit, dramBytes float64, env Env) Time {
	return Cost(g, u, g.Flops(), dramBytes, env)
}

// ChooseUnit returns the fastest unit for a GEMM under env, breaking
// ties toward the simpler unit. This reproduces the paper's Variation-1
// observation that the most efficient AU choice changes with matrix
// dimensions: skinny (vector-like) GEMMs prefer AVX, bulk GEMMs prefer
// AMX.
func ChooseUnit(g GEMM, dramBytes float64, env Env) Unit {
	best, bestT := UnitScalar, GEMMCost(g, UnitScalar, dramBytes, env).TotalS
	for _, u := range []Unit{UnitAVX, UnitAMX} {
		if t := GEMMCost(g, u, dramBytes, env).TotalS; t < bestT-1e-12 {
			best, bestT = u, t
		}
	}
	return best
}

// EffectiveTFLOPS converts a kernel time back into the achieved TFLOPS,
// the metric Section IV-A3 reports per phase.
func EffectiveTFLOPS(flops float64, t Time) float64 {
	if t.TotalS <= 0 {
		return 0
	}
	return flops / t.TotalS / 1e12
}
