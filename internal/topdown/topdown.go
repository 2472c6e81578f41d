// Package topdown implements the top-down microarchitecture analysis
// taxonomy (Yasin, ISPASS'14) used throughout the paper's
// characterization: every cycle is attributed to Retiring, Bad
// Speculation, Frontend Bound, or Backend Bound, with Backend Bound
// further split into Core Bound and Memory Bound, and those split again
// into the port/serialization and cache-level contributors shown in
// Figures 7 and 8.
//
// In this reproduction the breakdowns are synthesized by the machine
// simulator from each workload's timing components rather than read
// from PMU counters, but the taxonomy and derived metrics
// (tma_amx_busy, backend bound, dram bound, ...) match the paper's.
package topdown

import "fmt"

// Breakdown is a level-1..3 top-down cycle distribution. All fields are
// fractions of total slots/cycles; the level-1 fields sum to 1, the
// level-2 fields sum to BackendBound, and the level-3 fields sum to
// their level-2 parents.
type Breakdown struct {
	// Level 1.
	Retiring      float64
	BadSpec       float64
	FrontendBound float64
	BackendBound  float64

	// Level 2: split of BackendBound.
	CoreBound float64
	MemBound  float64

	// Level 3: split of CoreBound (Figure 8a).
	Serialize float64 // instruction-window / serializing operations
	Ports     float64 // execution port contention

	// Level 3: split of MemBound (Figure 8b).
	L1Bound   float64
	L2Bound   float64
	LLCBound  float64
	DRAMBound float64

	// Split of DRAMBound into bandwidth and latency, the distinction
	// Section IV-C2 highlights for the decode phase.
	DRAMBandwidth float64
	DRAMLatency   float64
}

// Weighted accumulates b scaled by weight into the receiver. Use
// Normalize after accumulating to recover fractions.
func (d *Breakdown) Weighted(b *Breakdown, weight float64) {
	d.Retiring += b.Retiring * weight
	d.BadSpec += b.BadSpec * weight
	d.FrontendBound += b.FrontendBound * weight
	d.BackendBound += b.BackendBound * weight
	d.CoreBound += b.CoreBound * weight
	d.MemBound += b.MemBound * weight
	d.Serialize += b.Serialize * weight
	d.Ports += b.Ports * weight
	d.L1Bound += b.L1Bound * weight
	d.L2Bound += b.L2Bound * weight
	d.LLCBound += b.LLCBound * weight
	d.DRAMBound += b.DRAMBound * weight
	d.DRAMBandwidth += b.DRAMBandwidth * weight
	d.DRAMLatency += b.DRAMLatency * weight
}

// Normalize rescales the breakdown so the level-1 categories sum to 1.
// A zero breakdown normalizes to all-idle (100% BackendBound is NOT
// assumed; the zero value stays zero).
func (d *Breakdown) Normalize() {
	total := d.Retiring + d.BadSpec + d.FrontendBound + d.BackendBound
	if total <= 0 {
		return
	}
	inv := 1 / total
	d.Retiring *= inv
	d.BadSpec *= inv
	d.FrontendBound *= inv
	d.BackendBound *= inv
	d.CoreBound *= inv
	d.MemBound *= inv
	d.Serialize *= inv
	d.Ports *= inv
	d.L1Bound *= inv
	d.L2Bound *= inv
	d.LLCBound *= inv
	d.DRAMBound *= inv
	d.DRAMBandwidth *= inv
	d.DRAMLatency *= inv
}

// Valid reports whether the breakdown is internally consistent: all
// fields non-negative, level-1 sums to 1 (±tol), and every split sums
// to its parent (±tol).
func (d Breakdown) Valid(tol float64) error {
	fields := []struct {
		name string
		v    float64
	}{
		{"Retiring", d.Retiring}, {"BadSpec", d.BadSpec},
		{"FrontendBound", d.FrontendBound}, {"BackendBound", d.BackendBound},
		{"CoreBound", d.CoreBound}, {"MemBound", d.MemBound},
		{"Serialize", d.Serialize}, {"Ports", d.Ports},
		{"L1Bound", d.L1Bound}, {"L2Bound", d.L2Bound},
		{"LLCBound", d.LLCBound}, {"DRAMBound", d.DRAMBound},
		{"DRAMBandwidth", d.DRAMBandwidth}, {"DRAMLatency", d.DRAMLatency},
	}
	for _, f := range fields {
		if f.v < -tol {
			return fmt.Errorf("topdown: %s negative (%.4f)", f.name, f.v)
		}
	}
	l1 := d.Retiring + d.BadSpec + d.FrontendBound + d.BackendBound
	if l1 < 1-tol || l1 > 1+tol {
		return fmt.Errorf("topdown: level-1 sums to %.4f, want 1", l1)
	}
	if s := d.CoreBound + d.MemBound; abs(s-d.BackendBound) > tol {
		return fmt.Errorf("topdown: core+mem=%.4f, backend=%.4f", s, d.BackendBound)
	}
	if s := d.Serialize + d.Ports; abs(s-d.CoreBound) > tol {
		return fmt.Errorf("topdown: serialize+ports=%.4f, core=%.4f", s, d.CoreBound)
	}
	if s := d.L1Bound + d.L2Bound + d.LLCBound + d.DRAMBound; abs(s-d.MemBound) > tol {
		return fmt.Errorf("topdown: memory path sums to %.4f, mem=%.4f", s, d.MemBound)
	}
	if s := d.DRAMBandwidth + d.DRAMLatency; abs(s-d.DRAMBound) > tol {
		return fmt.Errorf("topdown: bw+lat=%.4f, dram=%.4f", s, d.DRAMBound)
	}
	return nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Compose builds a consistent breakdown from raw stall fractions.
// retire is the useful-work fraction, fe the frontend stall fraction,
// bad the bad-speculation fraction; the remainder becomes BackendBound
// and is split by coreShare (vs memory), serializeShare (of core), and
// the memory-path weights (which are normalized internally). dramBW is
// the bandwidth share of the DRAM contribution.
func Compose(retire, bad, fe, coreShare, serializeShare float64, memPath [4]float64, dramBW float64) Breakdown {
	clamp01 := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	retire, bad, fe = clamp01(retire), clamp01(bad), clamp01(fe)
	if s := retire + bad + fe; s > 1 {
		retire, bad, fe = retire/s, bad/s, fe/s
	}
	be := 1 - retire - bad - fe
	core := be * clamp01(coreShare)
	mem := be - core
	var pathSum float64
	for _, w := range memPath {
		pathSum += w
	}
	var l1, l2, llc, dram float64
	if pathSum > 0 {
		l1 = mem * memPath[0] / pathSum
		l2 = mem * memPath[1] / pathSum
		llc = mem * memPath[2] / pathSum
		dram = mem * memPath[3] / pathSum
	} else {
		dram = mem
	}
	dramBW = clamp01(dramBW)
	ser := core * clamp01(serializeShare)
	return Breakdown{
		Retiring:      retire,
		BadSpec:       bad,
		FrontendBound: fe,
		BackendBound:  be,
		CoreBound:     core,
		MemBound:      mem,
		Serialize:     ser,
		Ports:         core - ser,
		L1Bound:       l1,
		L2Bound:       l2,
		LLCBound:      llc,
		DRAMBound:     dram,
		DRAMBandwidth: dram * dramBW,
		DRAMLatency:   dram * (1 - dramBW),
	}
}
