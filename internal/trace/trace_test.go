package trace

import (
	"math"
	"testing"
)

func TestTableIV(t *testing.T) {
	tests := []struct {
		s          Scenario
		ttft, tpot float64
		in, out    int
	}{
		{Chatbot(), 0.250, 0.100, 755, 200},
		{CodeCompletion(), 0.075, 0.150, 171, 98},
		{Summarization(), 1.5, 0.100, 1738, 91},
	}
	for _, tt := range tests {
		if tt.s.SLO.TTFT != tt.ttft || tt.s.SLO.TPOT != tt.tpot {
			t.Errorf("%s SLO = %+v", tt.s.Name, tt.s.SLO)
		}
		if tt.s.MeanInput != tt.in || tt.s.MeanOutput != tt.out {
			t.Errorf("%s lengths = %d/%d", tt.s.Name, tt.s.MeanInput, tt.s.MeanOutput)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"cb", "cc", "sm"} {
		s, err := ByName(name)
		if err != nil || s.Name != name {
			t.Fatalf("ByName(%s): %v %v", name, s.Name, err)
		}
	}
	if _, err := ByName("xx"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
}

func TestGeneratorRate(t *testing.T) {
	g := NewGenerator(Chatbot(), 7)
	const horizon = 2000.0
	n := 0
	for now := 0.0; now < horizon; now += 1 {
		n += len(g.Emit(now, 1))
	}
	want := Chatbot().RatePerS * horizon
	if math.Abs(float64(n)-want)/want > 0.1 {
		t.Fatalf("arrivals = %d over %v s, want ~%v", n, horizon, want)
	}
}

func TestGeneratorLengths(t *testing.T) {
	scen := Chatbot()
	g := NewGenerator(scen, 11)
	g.SetRate(100) // dense sampling
	sumIn, sumOut, n := 0.0, 0.0, 0
	for now := 0.0; now < 200; now += 1 {
		for _, r := range g.Emit(now, 1) {
			if r.PromptLen < 1 || r.OutputLen < 2 {
				t.Fatalf("degenerate request %+v", r)
			}
			sumIn += float64(r.PromptLen)
			sumOut += float64(r.OutputLen)
			n++
		}
	}
	if n < 1000 {
		t.Fatalf("too few samples: %d", n)
	}
	if math.Abs(sumIn/float64(n)-float64(scen.MeanInput))/float64(scen.MeanInput) > 0.15 {
		t.Fatalf("mean input = %.0f, want ~%d", sumIn/float64(n), scen.MeanInput)
	}
	if math.Abs(sumOut/float64(n)-float64(scen.MeanOutput))/float64(scen.MeanOutput) > 0.15 {
		t.Fatalf("mean output = %.0f, want ~%d", sumOut/float64(n), scen.MeanOutput)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(Summarization(), 42)
	b := NewGenerator(Summarization(), 42)
	for now := 0.0; now < 100; now += 1 {
		ra, rb := a.Emit(now, 1), b.Emit(now, 1)
		if len(ra) != len(rb) {
			t.Fatal("same-seed generators diverged in count")
		}
		for i := range ra {
			if ra[i].PromptLen != rb[i].PromptLen || ra[i].Arrival != rb[i].Arrival {
				t.Fatal("same-seed generators diverged in content")
			}
		}
	}
}

func TestArrivalsOrderedAndIDsUnique(t *testing.T) {
	g := NewGenerator(CodeCompletion(), 3)
	seen := map[int]bool{}
	last := -1.0
	for now := 0.0; now < 500; now += 0.5 {
		for _, r := range g.Emit(now, 0.5) {
			if r.Arrival < last {
				t.Fatal("arrivals out of order")
			}
			last = r.Arrival
			if seen[r.ID] {
				t.Fatalf("duplicate request ID %d", r.ID)
			}
			seen[r.ID] = true
		}
	}
}

func TestLengthCap(t *testing.T) {
	scen := Chatbot()
	g := NewGenerator(scen, 5)
	g.SetRate(200)
	for now := 0.0; now < 100; now += 1 {
		for _, r := range g.Emit(now, 1) {
			if r.PromptLen > 8*scen.MeanInput {
				t.Fatalf("prompt length %d exceeds the 8x cap", r.PromptLen)
			}
		}
	}
}

func TestSampleLengthsMatchesDistribution(t *testing.T) {
	scen := Chatbot()
	g := NewGenerator(scen, 17)
	sum, n := 0.0, 4000
	for i := 0; i < n; i++ {
		p, o := g.sampleArrival()
		if p < 8 || o < 2 || p > 8*scen.MeanInput || o > 8*scen.MeanOutput {
			t.Fatalf("sample out of range: %d/%d", p, o)
		}
		sum += float64(p)
	}
	if mean := sum / float64(n); math.Abs(mean-float64(scen.MeanInput))/float64(scen.MeanInput) > 0.15 {
		t.Fatalf("sampled mean prompt = %.0f, want ~%d", mean, scen.MeanInput)
	}
}
