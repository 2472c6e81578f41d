package workload

import (
	"aum/internal/platform"
	"aum/internal/roofline"
)

// AUApp models one of Figure 4's AU-accelerated datacenter workloads:
// a matrix-heavy kernel (accelerable by AMX) plus a non-matrix residue,
// parameterized by the figure's sweep axes — model dimension d, cores
// c, and batch size bs.
type AUApp struct {
	Name string
	// MatrixFrac is the fraction of per-item FLOPs in GEMM form.
	MatrixFrac float64
	// Flops and Bytes per item as functions of (dim, batch).
	Flops func(dim, batch int) float64
	Bytes func(dim, batch int) float64
	// Shape returns the representative GEMM (drives tile efficiency).
	Shape func(dim, batch int) roofline.GEMM
}

// Faiss is IVF-style vector search: a batch-by-database GEMM over the
// probed lists. Large databases make it stream-heavy, so AU gains
// saturate against memory bandwidth.
func Faiss() AUApp {
	const scanned = 16384
	return AUApp{
		Name:       "Faiss",
		MatrixFrac: 0.92,
		Flops: func(dim, batch int) float64 {
			return 2 * float64(batch) * float64(dim) * scanned
		},
		Bytes: func(dim, batch int) float64 {
			return float64(dim) * scanned * 2
		},
		Shape: func(dim, batch int) roofline.GEMM {
			return roofline.GEMM{M: batch, K: dim, N: scanned, DTypeBytes: 2}
		},
	}
}

// Vocoder is a neural vocoder: dense frame-by-frame GEMMs over many
// output samples — compute-bound, the biggest AU winner.
func Vocoder() AUApp {
	const frames = 256
	return AUApp{
		Name:       "Vocoder",
		MatrixFrac: 0.85,
		Flops: func(dim, batch int) float64 {
			return 2 * frames * float64(batch) * float64(dim) * float64(dim) * 4
		},
		Bytes: func(dim, batch int) float64 {
			return float64(dim) * float64(dim) * 4 * 2
		},
		Shape: func(dim, batch int) roofline.GEMM {
			return roofline.GEMM{M: frames * batch, K: dim, N: dim * 4, DTypeBytes: 2}
		},
	}
}

// DeepFM is CTR recommendation: embedding gathers (memory-bound, not
// accelerable) feeding a small MLP — the most modest AU gains.
func DeepFM() AUApp {
	const fields = 64
	return AUApp{
		Name:       "DeepFM",
		MatrixFrac: 0.55,
		Flops: func(dim, batch int) float64 {
			return 2 * float64(batch) * (fields*float64(dim)*400 + 400*400)
		},
		Bytes: func(dim, batch int) float64 {
			return float64(batch) * fields * float64(dim) * 4 * 1.5
		},
		Shape: func(dim, batch int) roofline.GEMM {
			return roofline.GEMM{M: batch, K: fields * dim, N: 400, DTypeBytes: 2}
		},
	}
}

// AUApps returns the three Figure 4 workloads.
func AUApps() []AUApp { return []AUApp{Faiss(), Vocoder(), DeepFM()} }

// ItemTime returns the per-item execution time on plat with cores cores
// and batch/dim parameters, with or without the accelerator unit. The
// AU-disabled baseline runs everything on the scalar pipes, matching
// Figure 4's "AU-disabled GenC" normalization.
func (a AUApp) ItemTime(plat platform.Platform, dim, batch, cores int, auEnabled bool) float64 {
	env := roofline.Env{
		Plat:         &plat,
		Cores:        cores,
		GHz:          plat.License.Scalar,
		BWGBs:        plat.MemBWGBs,
		ComputeShare: 1,
	}
	g := a.Shape(dim, batch)
	flops := a.Flops(dim, batch)
	bytes := a.Bytes(dim, batch)
	matrix := flops * a.MatrixFrac
	rest := flops - matrix

	unit := roofline.UnitScalar
	if auEnabled {
		env.GHz = plat.License.AMXHeavy
		unit = roofline.ChooseUnit(g, bytes, env)
	}
	tm := roofline.Cost(g, unit, matrix, bytes, env)
	tr := roofline.Cost(g, roofline.UnitScalar, rest, 0, env)
	return tm.TotalS + tr.TotalS
}

// Speedup returns the AU-enabled speedup over the scalar baseline.
func (a AUApp) Speedup(plat platform.Platform, dim, batch, cores int) float64 {
	off := a.ItemTime(plat, dim, batch, cores, false)
	on := a.ItemTime(plat, dim, batch, cores, true)
	if on <= 0 {
		return 0
	}
	return off / on
}
