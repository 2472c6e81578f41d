// Package platform defines the hardware platforms evaluated in the
// paper (Table I): two Sapphire Rapids machines (GenA with DDR5, GenB
// with HBM) and one Granite Rapids machine (GenC with MCR memory), plus
// the A100 GPU reference point used by Figure 5.
//
// A Platform is a pure description. The behavioural models that consume
// it (roofline kernel times, the frequency governor, cache and
// bandwidth partitioning) live in their own packages.
package platform

import "fmt"

// CacheSpec describes one cache level.
type CacheSpec struct {
	SizeKB int // capacity in KiB
	Ways   int // associativity; also the CAT partitioning granularity
}

// SizeMB returns the capacity in MiB.
func (c CacheSpec) SizeMB() float64 { return float64(c.SizeKB) / 1024 }

// FreqLicense holds the per-activity-class all-core frequency caps in
// GHz. Modern Xeons reduce frequency when wide vector or matrix units
// are active ("license levels"); the caps below reproduce the turbostat
// measurements in Figure 6 (prefill-style AMX load runs near 2.5 GHz on
// GenA while scalar cores stay at the 3.2 GHz all-core turbo).
type FreqLicense struct {
	Scalar   float64 // no AU activity
	AVXHeavy float64 // sustained AVX-512 activity
	AMXHeavy float64 // sustained AMX tile activity
}

// Platform is one evaluated machine. All quantities describe a single
// socket: the paper's experiments pin workloads to one socket, and
// modelling a single coherent LLC/bandwidth domain keeps the contention
// model exact.
type Platform struct {
	Name       string // GenA, GenB, GenC
	Generation string
	CPUModel   string

	Sockets  int     // populated sockets in the managed machine
	Cores    int     // total physical cores across all sockets
	SMTWays  int     // hardware threads per core
	BaseGHz  float64 // base (guaranteed) frequency
	TurboGHz float64 // all-core turbo ceiling
	// PeakRefGHz is the frequency the Table I peak numbers are quoted
	// at (0 = BaseGHz). GenB shares GenA's silicon — identical
	// flops/cycle — so its 206.4 TFLOPS figure refers to GenA's 2.7
	// GHz, not GenB's 2.1 GHz base.
	PeakRefGHz  float64
	License     FreqLicense
	FreqStepGHz float64 // governor frequency quantum

	// Peak per-socket throughput at base frequency, as reported in
	// Table I ("AU TFLOPS (AVX-512/AMX)").
	AVXPeakTFLOPS float64
	AMXPeakTFLOPS float64

	L1I, L1D, L2 CacheSpec // per core
	LLC          CacheSpec // per socket

	MemGB int
	// MemBWGBs is the machine's *effective* serving bandwidth. For the
	// two-socket platforms this equals the Table I per-socket figure:
	// cross-socket tensor-parallel serving is NUMA-bound, so the
	// effective streaming bandwidth does not scale with sockets (this
	// is what pins GenA decode at the paper's ~188 tokens/s).
	MemBWGBs float64
	MemKind  string // DDR5 | HBM | MCR

	TDPWatts    float64 // machine power limit (all sockets)
	UncoreWatts float64 // constant uncore/fabric power (all sockets)
	// PowerScale scales per-core dynamic power relative to the SPR
	// reference cores (newer processes deliver the same work for less
	// power; GNR cores draw ~60% of SPR's at equal activity).
	PowerScale float64
	// AUClusterSize models SME-style shared-AU topologies (Section
	// VIII): one matrix unit serves this many physical cores. 0 or 1
	// means the Intel layout — a private AU per core.
	AUClusterSize int
	IdleCoreW     float64 // per-core power at idle
	PriceUSD      float64 // processor acquisition cost (Fig. 5 / TCO)
}

// GenA is the Intel Xeon 8475B (Sapphire Rapids, DDR5). It is the
// default platform for Sections V-VII.
func GenA() Platform {
	return Platform{
		Name:       "GenA",
		Generation: "Sapphire Rapids",
		CPUModel:   "Xeon 8475B",
		Sockets:    2,
		Cores:      96,
		SMTWays:    2,
		BaseGHz:    2.7,
		TurboGHz:   3.2,
		License: FreqLicense{
			Scalar:   3.2,
			AVXHeavy: 3.1,
			AMXHeavy: 2.5,
		},
		FreqStepGHz:   0.1,
		AVXPeakTFLOPS: 25.6,
		AMXPeakTFLOPS: 206.4,
		L1I:           CacheSpec{SizeKB: 32, Ways: 8},
		L1D:           CacheSpec{SizeKB: 48, Ways: 12},
		L2:            CacheSpec{SizeKB: 2048, Ways: 16},
		LLC:           CacheSpec{SizeKB: 99840, Ways: 15}, // 97.5 MB
		MemGB:         1024,
		MemBWGBs:      233.8,
		MemKind:       "DDR5",
		TDPWatts:      600,
		UncoreWatts:   110,
		PowerScale:    1.0,
		IdleCoreW:     1.1,
		PriceUSD:      7200, // per processor; Figure 5 compares 1 CPU vs 1 GPU
	}
}

// GenB is the Intel Xeon Max 9468 (Sapphire Rapids with on-package
// HBM). Identical compute to GenA at a lower base frequency, with 2.5x
// the memory bandwidth — the platform that isolates bandwidth effects.
func GenB() Platform {
	p := GenA()
	p.Name = "GenB"
	p.CPUModel = "Xeon Max 9468"
	p.BaseGHz = 2.1
	p.TurboGHz = 3.1
	p.PeakRefGHz = 2.7
	p.License = FreqLicense{Scalar: 3.1, AVXHeavy: 2.9, AMXHeavy: 2.4}
	p.LLC = CacheSpec{SizeKB: 107520, Ways: 15} // 105 MB
	p.MemGB = 128
	p.MemBWGBs = 588
	p.MemKind = "HBM"
	p.TDPWatts = 700
	p.PowerScale = 0.8
	p.PriceUSD = 9900
	return p
}

// GenC is the Intel Xeon 6982P-C (Granite Rapids, MCR memory): more
// cores, a much larger LLC, improved AMX throughput, and high-bandwidth
// MCR DIMMs.
func GenC() Platform {
	return Platform{
		Name:       "GenC",
		Generation: "Granite Rapids",
		CPUModel:   "Xeon 6982P-C",
		Sockets:    1,
		Cores:      120,
		SMTWays:    2,
		BaseGHz:    2.8,
		TurboGHz:   3.2,
		License: FreqLicense{
			Scalar:   3.2,
			AVXHeavy: 3.0,
			AMXHeavy: 2.6,
		},
		FreqStepGHz:   0.1,
		AVXPeakTFLOPS: 32,
		AMXPeakTFLOPS: 344,
		L1I:           CacheSpec{SizeKB: 64, Ways: 16},
		L1D:           CacheSpec{SizeKB: 48, Ways: 12},
		L2:            CacheSpec{SizeKB: 2048, Ways: 16},
		LLC:           CacheSpec{SizeKB: 516096, Ways: 16}, // 504 MB
		MemGB:         768,
		MemBWGBs:      600,
		MemKind:       "MCR",
		TDPWatts:      500,
		UncoreWatts:   90,
		PowerScale:    0.6,
		IdleCoreW:     1.0,
		PriceUSD:      12500,
	}
}

// GPURef is the single-GPU reference point of Figure 5: an NVIDIA A100
// server driven by FlexGen serving llama2-7b. The paper reports the
// CPU-relative ratios; we store the absolute numbers consistent with
// GenA's stated 188 tokens/s, 270 W, $7200.
type GPURef struct {
	Name      string
	TokensPS  float64
	Watts     float64
	PriceUSD  float64
	Framework string
}

// A100FlexGen returns the GPU reference configuration.
//
// Calibration: the paper states GPU perf/W is 2.1x GenA's and GPU
// perf/$ is worse than high-end CPUs (CPU ≈ 1.3x perf-per-dollar).
// With GenA at 188 tok/s / 270 W / $7200: GPU ≈ 440 tok/s at 300 W and
// ≈ $22000 (A100 80GB server share), giving 2.1x perf/W and ~0.77x
// perf/$ versus GenA.
func A100FlexGen() GPURef {
	return GPURef{
		Name:      "A100-80GB",
		TokensPS:  440,
		Watts:     300,
		PriceUSD:  22000,
		Framework: "FlexGen",
	}
}

// ByName returns the platform with the given name.
func ByName(name string) (Platform, error) {
	switch name {
	case "GenA", "gena":
		return GenA(), nil
	case "GenB", "genb":
		return GenB(), nil
	case "GenC", "genc":
		return GenC(), nil
	}
	return Platform{}, fmt.Errorf("platform: unknown platform %q", name)
}

// All returns the three evaluated platforms in Table I order.
func All() []Platform { return []Platform{GenA(), GenB(), GenC()} }

// socketCount returns the populated sockets, defaulting to 1 for
// hand-built test platforms that leave the field zero.
func (p *Platform) socketCount() float64 {
	if p.Sockets <= 0 {
		return 1
	}
	return float64(p.Sockets)
}

// AMXPeakGFLOPSPerCore returns the per-core AMX peak at the given
// frequency in GFLOP/s. Peak scales linearly with frequency from the
// per-socket Table I value quoted at base frequency.
func (p *Platform) AMXPeakGFLOPSPerCore(ghz float64) float64 {
	return p.AMXPeakTFLOPS * p.socketCount() * 1000 / float64(p.Cores) * ghz / p.peakRef()
}

// peakRef returns the frequency the Table I peaks are quoted at.
func (p *Platform) peakRef() float64 {
	if p.PeakRefGHz > 0 {
		return p.PeakRefGHz
	}
	return p.BaseGHz
}

// AVXPeakGFLOPSPerCore returns the per-core AVX-512 peak at the given
// frequency in GFLOP/s.
func (p *Platform) AVXPeakGFLOPSPerCore(ghz float64) float64 {
	return p.AVXPeakTFLOPS * p.socketCount() * 1000 / float64(p.Cores) * ghz / p.peakRef()
}

// TotalLLCMB returns the machine-wide LLC capacity in MiB.
func (p *Platform) TotalLLCMB() float64 {
	return p.LLC.SizeMB() * p.socketCount()
}

// ScalarPeakGFLOPSPerCore returns the per-core scalar/SSE FP peak at
// the given frequency: 4 FLOPs per cycle (2 FMA pipes, 128-bit).
func (p *Platform) ScalarPeakGFLOPSPerCore(ghz float64) float64 {
	return 4 * ghz
}

// LLCWayMB returns the machine-wide capacity of a single LLC way in
// MiB (CAT masks are mirrored across sockets).
func (p *Platform) LLCWayMB() float64 {
	return p.TotalLLCMB() / float64(p.LLC.Ways)
}
