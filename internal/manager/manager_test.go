package manager

import (
	"testing"

	"aum/internal/colo"
	"aum/internal/llm"
	"aum/internal/machine"
	"aum/internal/platform"
	"aum/internal/rdt"
	"aum/internal/serve"
	"aum/internal/trace"
	"aum/internal/workload"
)

func newEnv(t *testing.T, withBE bool) *colo.Env {
	t.Helper()
	plat := platform.GenA()
	m := machine.New(plat)
	eng := serve.NewEngine(serve.Config{Model: llm.Llama2_7B(), SLO: trace.Chatbot().SLO})
	e := &colo.Env{
		Plat:   plat,
		M:      m,
		RDT:    rdt.New(m),
		Engine: eng,
		Scen:   trace.Chatbot(),
	}
	if withBE {
		e.BEApp = workload.New(workload.SPECjbb(), 1)
	}
	return e
}

func TestNewSplit(t *testing.T) {
	s := NewSplit(96, 0.5, 0.3)
	if s.HiHi-s.HiLo+1 != 48 {
		t.Fatalf("prefill region = %d cores", s.HiHi-s.HiLo+1)
	}
	if s.SharedCores() != 96-48-29 {
		t.Fatalf("shared = %d", s.SharedCores())
	}
	// Regions tile the machine contiguously.
	if s.LoLo != s.HiHi+1 || s.NoLo != s.LoHi+1 || s.NoHi != 95 {
		t.Fatalf("regions not contiguous: %+v", s)
	}
	// Degenerate fractions still yield at least one core each.
	tiny := NewSplit(4, 0.01, 0.01)
	if tiny.HiHi < tiny.HiLo || tiny.LoHi < tiny.LoLo {
		t.Fatalf("degenerate split invalid: %+v", tiny)
	}
}

func TestAllAUSetup(t *testing.T) {
	e := newEnv(t, true)
	if err := (AllAU{}).Setup(e); err != nil {
		t.Fatal(err)
	}
	if e.PrefillID == 0 || e.DecodeID == 0 {
		t.Fatal("LLM not placed")
	}
	if e.BEID != 0 {
		t.Fatal("exclusive baseline must not schedule the co-runner")
	}
	// The whole machine is allocated to the LLM.
	pp, _ := e.M.Placement(e.PrefillID)
	dp, _ := e.M.Placement(e.DecodeID)
	if pp.CoreLo != 0 || dp.CoreHi != e.Plat.Cores-1 {
		t.Fatalf("exclusive split leaves cores unused: %+v %+v", pp, dp)
	}
}

func TestSMTAUSetup(t *testing.T) {
	e := newEnv(t, true)
	if err := (SMTAU{}).Setup(e); err != nil {
		t.Fatal(err)
	}
	if e.BEID == 0 {
		t.Fatal("SMT baseline should place the co-runner")
	}
	bp, _ := e.M.Placement(e.BEID)
	if bp.SMTSlot != 1 {
		t.Fatal("SMT co-runner should ride sibling threads")
	}
	if bp.Cores() != e.Plat.Cores {
		t.Fatalf("SMT co-runner covers %d cores, want all", bp.Cores())
	}
}

func TestRPAUFeedback(t *testing.T) {
	e := newEnv(t, true)
	r := &RPAU{}
	if err := r.Setup(e); err != nil {
		t.Fatal(err)
	}
	if e.BEID == 0 {
		t.Fatal("RP baseline should place the co-runner")
	}
	bp, _ := e.M.Placement(e.BEID)
	if bp.SMTSlot != 0 {
		t.Fatal("RP co-runner should own dedicated cores")
	}
	if bp.COS == 0 {
		t.Fatal("RP co-runner should be in its own class of service")
	}
	startWays, _ := e.RDT.Ways(COSBE)
	// Simulate to populate token latencies, then tick; the feedback
	// ladder should move in some direction without error.
	for i := 0; i < 200; i++ {
		e.M.Step()
	}
	for i := 0; i < 20; i++ {
		if err := r.Tick(e, float64(i)*0.05); err != nil {
			t.Fatal(err)
		}
	}
	endWays, _ := e.RDT.Ways(COSBE)
	if startWays == endWays {
		t.Log("feedback did not move ways (may be at equilibrium); checking MBA instead")
	}
	mba, _ := e.RDT.MBA(COSBE)
	if mba < 10 || mba > 100 {
		t.Fatalf("MBA out of range: %d", mba)
	}
}

func TestBaselinesRunToCompletion(t *testing.T) {
	jbb := workload.SPECjbb()
	for _, mgr := range []colo.Manager{AllAU{}, SMTAU{}, &RPAU{}} {
		res, err := colo.Run(colo.Config{
			Plat: platform.GenA(), Model: llm.Llama2_7B(), Scen: trace.Chatbot(),
			BE: &jbb, Manager: mgr, HorizonS: 8, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s: %v", mgr.Name(), err)
		}
		if res.RawPerfL <= 0 {
			t.Fatalf("%s produced no tokens", mgr.Name())
		}
	}
}
