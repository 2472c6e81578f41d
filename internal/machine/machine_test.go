package machine

import (
	"math"
	"testing"

	"aum/internal/cache"
	"aum/internal/platform"
	"aum/internal/power"
	"aum/internal/topdown"
)

// constApp is a minimal deterministic workload for machine tests.
type constApp struct {
	name  string
	class power.Class
	util  float64
	bwGBs float64
}

func (c *constApp) Name() string { return c.name }

func (c *constApp) Demand(env Env) Demand {
	return Demand{Class: c.class, Util: c.util, BWGBs: c.bwGBs}
}

func (c *constApp) Step(env Env, now, dt float64) Usage {
	rate := float64(env.Cores) * env.GHz * env.ComputeShare
	bw := math.Min(c.bwGBs, env.BWGBs)
	return Usage{
		Work:      rate * dt,
		DRAMBytes: bw * 1e9 * dt,
		Util:      c.util,
		Breakdown: topdown.Compose(0.3, 0.02, 0.05, 0.5, 0.5, [4]float64{1, 1, 1, 1}, 0.5),
	}
}

func newTestMachine() *Machine { return New(platform.GenA()) }

func TestPlacementValidation(t *testing.T) {
	m := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 1}
	if _, err := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 95, SMTSlot: 0}); err != nil {
		t.Fatal(err)
	}
	// Overlapping slot-0 placement must be rejected.
	if _, err := m.AddTask(&constApp{name: "b"}, Placement{CoreLo: 90, CoreHi: 99, SMTSlot: 0}); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
	if _, err := m.AddTask(&constApp{name: "b"}, Placement{CoreLo: 10, CoreHi: 20, SMTSlot: 0}); err == nil {
		t.Fatal("overlapping placement accepted")
	}
	// Sibling placement inside the primary range is fine.
	if _, err := m.AddTask(&constApp{name: "c"}, Placement{CoreLo: 10, CoreHi: 20, SMTSlot: 1}); err != nil {
		t.Fatalf("sibling placement rejected: %v", err)
	}
}

func TestSiblingNeedsPrimary(t *testing.T) {
	m := newTestMachine()
	if _, err := m.AddTask(&constApp{name: "orphan"}, Placement{CoreLo: 0, CoreHi: 3, SMTSlot: 1}); err == nil {
		t.Fatal("sibling without a primary accepted")
	}
}

func TestSiblingMaySpanPrimaries(t *testing.T) {
	m := newTestMachine()
	if _, err := m.AddTask(&constApp{name: "p1", class: power.AMXHeavy, util: 0.9},
		Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AddTask(&constApp{name: "p2", class: power.AVXHeavy, util: 0.6},
		Placement{CoreLo: 48, CoreHi: 95, SMTSlot: 0}); err != nil {
		t.Fatal(err)
	}
	// SMT-AU style: the co-runner spans both primaries' siblings.
	if _, err := m.AddTask(&constApp{name: "be", class: power.Scalar, util: 0.8},
		Placement{CoreLo: 0, CoreHi: 95, SMTSlot: 1}); err != nil {
		t.Fatalf("spanning sibling rejected: %v", err)
	}
}

func TestStatsAccumulate(t *testing.T) {
	m := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 0.8, bwGBs: 10}
	id, err := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 31, SMTSlot: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		m.Step(1e-3)
	}
	st, ok := m.Stats(id)
	if !ok {
		t.Fatal("stats missing")
	}
	if math.Abs(st.TimeS-0.1) > 1e-9 {
		t.Fatalf("time = %v, want 0.1", st.TimeS)
	}
	if st.Work <= 0 || st.DRAMBytes <= 0 {
		t.Fatal("no work or traffic accumulated")
	}
	if st.MeanGHz() < power.MinGHz || st.MeanGHz() > 3.3 {
		t.Fatalf("mean frequency %v out of range", st.MeanGHz())
	}
	if err := st.NormalizedBreakdown().Valid(1e-6); err != nil {
		t.Fatalf("accumulated breakdown invalid: %v", err)
	}
}

func TestStatsSub(t *testing.T) {
	m := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 0.5}
	id, _ := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 7, SMTSlot: 0})
	for i := 0; i < 50; i++ {
		m.Step(1e-3)
	}
	snap, _ := m.Stats(id)
	for i := 0; i < 50; i++ {
		m.Step(1e-3)
	}
	cur, _ := m.Stats(id)
	d := cur.Sub(snap)
	if math.Abs(d.TimeS-0.05) > 1e-9 {
		t.Fatalf("interval time = %v, want 0.05", d.TimeS)
	}
	if d.Work <= 0 {
		t.Fatal("interval work not positive")
	}
}

func TestEnergyAccounting(t *testing.T) {
	m := newTestMachine()
	m.Step(1)
	idle := m.EnergyJ()
	// An empty GenA machine draws uncore + 96 idle cores.
	p := platform.GenA()
	want := p.UncoreWatts + float64(p.Cores)*p.IdleCoreW
	if math.Abs(idle-want) > 1 {
		t.Fatalf("idle energy over 1 s = %v J, want ~%v", idle, want)
	}
	a := &constApp{name: "a", class: power.AMXHeavy, util: 0.95}
	if _, err := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 95, SMTSlot: 0}); err != nil {
		t.Fatal(err)
	}
	m.Step(1)
	if m.EnergyJ()-idle <= idle {
		t.Fatal("a loaded machine should draw far more than idle")
	}
	if m.LastWatts() > p.TDPWatts*1.001 {
		t.Fatalf("package power %v exceeds TDP", m.LastWatts())
	}
}

func TestSMTComputeShare(t *testing.T) {
	mSolo := newTestMachine()
	solo := &constApp{name: "s", class: power.Scalar, util: 1}
	idSolo, _ := mSolo.AddTask(solo, Placement{CoreLo: 0, CoreHi: 15, SMTSlot: 0})
	for i := 0; i < 200; i++ {
		mSolo.Step(1e-3)
	}
	stSolo, _ := mSolo.Stats(idSolo)

	mPair := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 1}
	b := &constApp{name: "b", class: power.Scalar, util: 1}
	idA, _ := mPair.AddTask(a, Placement{CoreLo: 0, CoreHi: 15, SMTSlot: 0})
	if _, err := mPair.AddTask(b, Placement{CoreLo: 0, CoreHi: 15, SMTSlot: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		mPair.Step(1e-3)
	}
	stA, _ := mPair.Stats(idA)
	if stA.Work >= stSolo.Work {
		t.Fatal("an active SMT sibling did not slow the primary")
	}
	// Contention is bounded: the primary keeps at least ~35% throughput.
	if stA.Work < 0.3*stSolo.Work {
		t.Fatalf("SMT contention too harsh: %.2f of solo", stA.Work/stSolo.Work)
	}
}

func TestCOSBandwidthThrottle(t *testing.T) {
	free := newTestMachine()
	hog := &constApp{name: "hog", class: power.Scalar, util: 0.6, bwGBs: 500}
	idFree, _ := free.AddTask(hog, Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0, COS: 1})
	for i := 0; i < 100; i++ {
		free.Step(1e-3)
	}
	stFree, _ := free.Stats(idFree)

	capped := newTestMachine()
	if err := capped.SetCOS(1, COSConfig{Ways: cache.Mask{Lo: 10, Hi: 14}, MBAFrac: 0.1}); err != nil {
		t.Fatal(err)
	}
	hog2 := &constApp{name: "hog", class: power.Scalar, util: 0.6, bwGBs: 500}
	idCap, _ := capped.AddTask(hog2, Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0, COS: 1})
	for i := 0; i < 100; i++ {
		capped.Step(1e-3)
	}
	stCap, _ := capped.Stats(idCap)
	if stCap.DRAMBytes >= stFree.DRAMBytes/2 {
		t.Fatalf("MBA throttle ineffective: capped=%v free=%v", stCap.DRAMBytes, stFree.DRAMBytes)
	}
}

func TestSetCOSValidation(t *testing.T) {
	m := newTestMachine()
	if err := m.SetCOS(0, COSConfig{Ways: cache.Mask{Lo: 0, Hi: 99}, MBAFrac: 1}); err == nil {
		t.Fatal("oversized way mask accepted")
	}
	if err := m.SetCOS(0, COSConfig{Ways: cache.Mask{Lo: 0, Hi: 3}, MBAFrac: 0}); err == nil {
		t.Fatal("zero MBA accepted")
	}
	if err := m.SetCOS(99, COSConfig{}); err == nil {
		t.Fatal("invalid COS index accepted")
	}
}

func TestSetPlacementsAtomic(t *testing.T) {
	m := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 0.5}
	b := &constApp{name: "b", class: power.Scalar, util: 0.5}
	idA, _ := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0})
	idB, _ := m.AddTask(b, Placement{CoreLo: 48, CoreHi: 95, SMTSlot: 0})
	// Swap regions: transiently overlapping, atomically fine.
	err := m.SetPlacements(map[TaskID]Placement{
		idA: {CoreLo: 48, CoreHi: 95, SMTSlot: 0},
		idB: {CoreLo: 0, CoreHi: 47, SMTSlot: 0},
	})
	if err != nil {
		t.Fatalf("atomic swap failed: %v", err)
	}
	// An invalid bulk move must roll back completely.
	before, _ := m.Placement(idA)
	err = m.SetPlacements(map[TaskID]Placement{
		idA: {CoreLo: 0, CoreHi: 95, SMTSlot: 0}, // overlaps B
	})
	if err == nil {
		t.Fatal("conflicting bulk move accepted")
	}
	after, _ := m.Placement(idA)
	if before != after {
		t.Fatal("failed bulk move was not rolled back")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, float64) {
		m := newTestMachine()
		a := &constApp{name: "a", class: power.AMXHeavy, util: 0.9, bwGBs: 100}
		id, _ := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 63, SMTSlot: 0})
		for i := 0; i < 500; i++ {
			m.Step(1e-3)
		}
		st, _ := m.Stats(id)
		return st.Work, m.EnergyJ()
	}
	w1, e1 := run()
	w2, e2 := run()
	if w1 != w2 || e1 != e2 {
		t.Fatal("machine simulation is not deterministic")
	}
}

func TestRemoveTask(t *testing.T) {
	m := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 0.5}
	id, _ := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 7, SMTSlot: 0})
	m.RemoveTask(id)
	if _, ok := m.Stats(id); ok {
		t.Fatal("removed task still has stats")
	}
	// Freed cores are reusable.
	if _, err := m.AddTask(&constApp{name: "b"}, Placement{CoreLo: 0, CoreHi: 7, SMTSlot: 0}); err != nil {
		t.Fatal(err)
	}
}

func TestPerTaskEnergyAttribution(t *testing.T) {
	m := newTestMachine()
	hot := &constApp{name: "hot", class: power.AMXHeavy, util: 0.95}
	cool := &constApp{name: "cool", class: power.Scalar, util: 0.2}
	hotID, _ := m.AddTask(hot, Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0})
	coolID, _ := m.AddTask(cool, Placement{CoreLo: 48, CoreHi: 95, SMTSlot: 0})
	for i := 0; i < 200; i++ {
		m.Step(1e-3)
	}
	hs, _ := m.Stats(hotID)
	cs, _ := m.Stats(coolID)
	if hs.EnergyJ <= cs.EnergyJ {
		t.Fatalf("AMX task attributed %v J vs scalar %v J", hs.EnergyJ, cs.EnergyJ)
	}
	// Attributed core energy stays below the package total (which also
	// carries uncore power).
	if hs.EnergyJ+cs.EnergyJ >= m.EnergyJ() {
		t.Fatalf("attribution (%v) exceeds package energy (%v)",
			hs.EnergyJ+cs.EnergyJ, m.EnergyJ())
	}
	if hs.MeanWatts() <= 0 {
		t.Fatal("mean watts missing")
	}
}

func TestOfflineCoresStallWork(t *testing.T) {
	m := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 0.8}
	id, _ := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0})
	for i := 0; i < 100; i++ {
		m.Step(1e-3)
	}
	full, _ := m.Stats(id)
	fullRate := full.Work / full.TimeS

	// Offline half the task's cores: work rate halves.
	if err := m.SetOffline(0, 23); err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := m.OfflineRange(); !ok || lo != 0 || hi != 23 {
		t.Fatalf("offline range = %d..%d %v", lo, hi, ok)
	}
	m.ResetStats(id)
	for i := 0; i < 100; i++ {
		m.Step(1e-3)
	}
	half, _ := m.Stats(id)
	halfRate := half.Work / half.TimeS
	if halfRate >= 0.6*fullRate {
		t.Fatalf("offline half cores: rate %v vs full %v", halfRate, fullRate)
	}

	// Offline all of them: the task stalls entirely (stats frozen).
	if err := m.SetOffline(0, 47); err != nil {
		t.Fatal(err)
	}
	m.ResetStats(id)
	for i := 0; i < 50; i++ {
		m.Step(1e-3)
	}
	dead, _ := m.Stats(id)
	if dead.Work != 0 || dead.TimeS != 0 {
		t.Fatalf("fully offline task still ran: %+v", dead)
	}

	// Restore: back to the full rate.
	m.ClearOffline()
	if _, _, ok := m.OfflineRange(); ok {
		t.Fatal("offline range not cleared")
	}
	m.ResetStats(id)
	for i := 0; i < 100; i++ {
		m.Step(1e-3)
	}
	back, _ := m.Stats(id)
	if r := back.Work / back.TimeS; r < 0.99*fullRate {
		t.Fatalf("restored rate %v vs full %v", r, fullRate)
	}

	if err := m.SetOffline(-1, 3); err == nil {
		t.Fatal("negative offline range accepted")
	}
	if err := m.SetOffline(0, 999); err == nil {
		t.Fatal("out-of-range offline range accepted")
	}
}

func TestFreqDerate(t *testing.T) {
	m := newTestMachine()
	a := &constApp{name: "a", class: power.Scalar, util: 0.8}
	id, _ := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0})
	for i := 0; i < 100; i++ {
		m.Step(1e-3)
	}
	full, _ := m.Stats(id)

	m.SetFreqDerate(0.5)
	m.ResetStats(id)
	for i := 0; i < 100; i++ {
		m.Step(1e-3)
	}
	derated, _ := m.Stats(id)
	if derated.MeanGHz() >= 0.55*full.MeanGHz() {
		t.Fatalf("derated freq %v vs full %v", derated.MeanGHz(), full.MeanGHz())
	}

	// Out-of-range derates reset to 1.
	m.SetFreqDerate(0)
	m.ResetStats(id)
	for i := 0; i < 100; i++ {
		m.Step(1e-3)
	}
	back, _ := m.Stats(id)
	if back.MeanGHz() < 0.99*full.MeanGHz() {
		t.Fatalf("derate not cleared: %v vs %v", back.MeanGHz(), full.MeanGHz())
	}
}

func TestBWPressure(t *testing.T) {
	p := platform.GenA()
	m := New(p)
	// A bandwidth hog demanding the whole link.
	a := &constApp{name: "hog", class: power.Scalar, util: 0.5, bwGBs: p.MemBWGBs * 2}
	id, _ := m.AddTask(a, Placement{CoreLo: 0, CoreHi: 47, SMTSlot: 0})
	for i := 0; i < 50; i++ {
		m.Step(1e-3)
	}
	full, _ := m.Stats(id)

	// Reserve 80% of the link: granted traffic shrinks accordingly.
	m.SetBWPressure(p.MemBWGBs * 0.8)
	m.ResetStats(id)
	for i := 0; i < 50; i++ {
		m.Step(1e-3)
	}
	squeezed, _ := m.Stats(id)
	if squeezed.DRAMBytes >= 0.35*full.DRAMBytes {
		t.Fatalf("bw pressure: %v bytes vs full %v", squeezed.DRAMBytes, full.DRAMBytes)
	}

	m.SetBWPressure(0)
	m.ResetStats(id)
	for i := 0; i < 50; i++ {
		m.Step(1e-3)
	}
	back, _ := m.Stats(id)
	if back.DRAMBytes < 0.99*full.DRAMBytes {
		t.Fatalf("pressure not cleared: %v vs %v", back.DRAMBytes, full.DRAMBytes)
	}
}
