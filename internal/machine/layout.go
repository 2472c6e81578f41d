package machine

import (
	"math"

	"aum/internal/cache"
	"aum/internal/power"
)

// stepLayout holds everything a full Step needs that is a function of
// the machine's configuration alone — task placements, class-of-service
// configuration and the offline core range — so it
// is derived once per configuration rather than once per step
// (DESIGN.md §9). invalidateFF drops it together with the step capture;
// the next full Step rebuilds it in place, reusing its buffers.
type stepLayout struct {
	valid bool

	// Per task, indexed like m.tasks.
	base     []Env      // demand-estimation environment; Cores is the online count
	eff      []int      // online physical cores
	llcMB    []float64  // LLC share within the task's class of service
	quiesce  []Quiescer // the workload's Quiescer, or nil
	regionOf []int      // frequency region the task runs in, -1 for none

	// Frequency regions: one per slot-0 task (primaries), plus the
	// sibling contributions merged into them, in the order a step
	// applies them.
	primaries []int
	merges    []overlapTerm // task: sibling, other: region

	// SMT partners per task: partners[partnerLo[i]:partnerLo[i+1]]
	// lists the other-slot tasks overlapping task i.
	partners  []overlapTerm // task: i, other: partner task
	partnerLo []int

	// Occupied classes of service, ascending. Class k is cos[k]; its
	// member tasks are members[memberLo[k]:memberLo[k+1]] in task order,
	// weighted by memberW (their online cores).
	cos       []int
	cosWeight []float64
	cosCap    []float64
	memberLo  []int
	members   []int
	memberW   []float64
}

// overlapTerm is one SMT overlap: other covers the fraction cover of
// the reference core range.
type overlapTerm struct {
	task, other int
	cover       float64
}

// stepLayout returns the layout for the current configuration,
// rebuilding it if a mutation dropped it.
func (m *Machine) stepLayout() *stepLayout {
	l := &m.layout
	if l.valid {
		return l
	}
	n := len(m.tasks)
	// SMT partners: the other-slot tasks sharing a task's cores, each
	// weighted by how much of the task's range it covers.
	l.partners = l.partners[:0]
	l.partnerLo = append(l.partnerLo[:0], 0)
	for i, t := range m.tasks {
		for j, o := range m.tasks {
			if j == i || o.place.SMTSlot == t.place.SMTSlot || !o.place.overlaps(t.place) {
				continue
			}
			lo := math.Max(float64(t.place.CoreLo), float64(o.place.CoreLo))
			hi := math.Min(float64(t.place.CoreHi), float64(o.place.CoreHi))
			l.partners = append(l.partners, overlapTerm{task: i, other: j, cover: (hi - lo + 1) / float64(t.place.Cores())})
		}
		l.partnerLo = append(l.partnerLo, len(l.partners))
	}

	llcPart := cache.Partition{TotalMB: m.plat.TotalLLCMB(), Ways: m.plat.LLC.Ways}
	scalarGHz := power.LicenseCap(&m.plat, power.Scalar)
	base := resizeSlice(&l.base, n)
	eff := resizeSlice(&l.eff, n)
	quiesce := resizeSlice(&l.quiesce, n)
	var cosCores [NumCOS]int
	for i, t := range m.tasks {
		eff[i] = m.effCores(t.place)
		cosCores[t.place.COS] += eff[i]
		quiesce[i], _ = t.wl.(Quiescer)
		// Demand estimation uses the scalar license as the optimistic
		// frequency and the full class bandwidth cap; the governor and
		// the arbiters refine both.
		cosCfg := m.cos[t.place.COS]
		l2 := float64(m.plat.L2.SizeKB) / 1024 * float64(t.place.Cores())
		if l.partnerLo[i+1] > l.partnerLo[i] {
			l2 /= 2 // the private cache is shared with a sibling thread
		}
		base[i] = Env{
			Plat:         &m.plat,
			Cores:        eff[i],
			GHz:          scalarGHz,
			ComputeShare: 1,
			LLCMB:        llcPart.WaysMB(cosCfg.Ways.Count()),
			L2MB:         l2,
			BWGBs:        cosCfg.MBAFrac * m.plat.MemBWGBs,
		}
	}
	llcMB := resizeSlice(&l.llcMB, n)
	for i, t := range m.tasks {
		llcMB[i] = base[i].LLCMB
		if c := t.place.COS; cosCores[c] > 0 {
			llcMB[i] = llcPart.WaysMB(m.cos[c].Ways.Count()) * float64(eff[i]) / float64(cosCores[c])
		}
	}

	// Regions: one per slot-0 task; a sibling merges into every region
	// it overlaps and runs at the frequency of the one hosting most of
	// its cores.
	regionOf := resizeSlice(&l.regionOf, n)
	l.primaries = l.primaries[:0]
	for i, t := range m.tasks {
		regionOf[i] = -1
		if t.place.SMTSlot == 0 {
			regionOf[i] = len(l.primaries)
			l.primaries = append(l.primaries, i)
		}
	}
	l.merges = l.merges[:0]
	for i, t := range m.tasks {
		if t.place.SMTSlot == 0 {
			continue
		}
		best, bestOverlap := -1, 0
		for j, p := range l.primaries {
			rp := m.tasks[p].place
			if !rp.overlaps(t.place) {
				continue
			}
			overlap := min(rp.CoreHi, t.place.CoreHi) - max(rp.CoreLo, t.place.CoreLo) + 1
			l.merges = append(l.merges, overlapTerm{task: i, other: j, cover: float64(overlap) / float64(rp.Cores())})
			if overlap > bestOverlap {
				best, bestOverlap = j, overlap
			}
		}
		regionOf[i] = best
	}

	// Occupied classes of service: weights are core counts, caps the
	// MBA throttles of the link.
	l.cos, l.cosWeight, l.cosCap = l.cos[:0], l.cosWeight[:0], l.cosCap[:0]
	l.memberLo = append(l.memberLo[:0], 0)
	l.members, l.memberW = l.members[:0], l.memberW[:0]
	for c := range m.cos {
		start := len(l.members)
		for i, t := range m.tasks {
			if t.place.COS == c {
				l.members = append(l.members, i)
				l.memberW = append(l.memberW, float64(eff[i]))
			}
		}
		if len(l.members) == start {
			continue
		}
		l.cos = append(l.cos, c)
		l.cosWeight = append(l.cosWeight, float64(cosCores[c]))
		l.cosCap = append(l.cosCap, m.cos[c].MBAFrac*m.plat.MemBWGBs)
		l.memberLo = append(l.memberLo, len(l.members))
	}
	l.valid = true
	return l
}

// computeShare returns the execution-port share of task i given all
// demands: 1 when alone on its cores, reduced by an active sibling.
func (l *stepLayout) computeShare(i int, demands []Demand) float64 {
	partnerUtil := 0.0
	for _, p := range l.partners[l.partnerLo[i]:l.partnerLo[i+1]] {
		partnerUtil += demands[p.other].Util * p.cover
	}
	if partnerUtil <= 0 {
		return 1
	}
	c := smtContention(demands[i].Class)
	return 1 / (1 + c*math.Min(partnerUtil, 1.25))
}
