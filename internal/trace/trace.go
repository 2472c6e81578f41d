// Package trace generates serving request streams for the paper's
// three AU usage scenarios (Table IV): ShareGPT-style chatbot (cb),
// HumanEval-style code completion (cc), and LongBench-style
// summarization (sm). Arrivals are Poisson; prompt and output lengths
// are log-normal with the table's means, which preserves the property
// the controller depends on — a spread of request sizes around the
// dataset average.
package trace

import (
	"fmt"

	"aum/internal/rng"
	"aum/internal/serve"
)

// Scenario is one AU usage scenario.
type Scenario struct {
	Name    string // cb, cc, sm
	Dataset string
	SLO     serve.SLO
	// Length statistics (arithmetic means from Table IV).
	MeanInput   int
	MeanOutput  int
	SigmaInput  float64 // log-normal shape
	SigmaOutput float64
	// RatePerS is the default offered load, sized to ~75% of GenA's
	// decode capacity so sharing decisions matter.
	RatePerS float64
	// Shape, when set, modulates the arrival rate over time
	// (inhomogeneous Poisson via thinning — see Shaper). nil keeps the
	// homogeneous stream, bit-identical to the pre-shaper generator.
	Shape Shaper
	// Mix, when non-empty, replaces the single length distribution
	// with a weighted mixture (multi-tenant scenarios): each arrival
	// draws a Component by weight, then samples its lengths from it.
	Mix []Component
}

// Chatbot returns the ShareGPT chatbot scenario.
func Chatbot() Scenario {
	return Scenario{
		Name: "cb", Dataset: "ShareGPT",
		SLO: serve.SLO{TTFT: 0.250, TPOT: 0.100},
		// ShareGPT prompt lengths are heavily right-skewed: the mean
		// (755) sits far above the median (~320), so a log-normal with
		// sigma 1.3 matches both moments.
		MeanInput: 755, MeanOutput: 200,
		SigmaInput: 1.3, SigmaOutput: 0.7,
		RatePerS: 0.70,
	}
}

// CodeCompletion returns the HumanEval code-completion scenario.
func CodeCompletion() Scenario {
	return Scenario{
		Name: "cc", Dataset: "HumanEval",
		SLO:       serve.SLO{TTFT: 0.075, TPOT: 0.150},
		MeanInput: 171, MeanOutput: 98,
		SigmaInput: 0.6, SigmaOutput: 0.6,
		RatePerS: 1.5,
	}
}

// Summarization returns the LongBench summarization scenario.
func Summarization() Scenario {
	return Scenario{
		Name: "sm", Dataset: "LongBench",
		SLO:       serve.SLO{TTFT: 1.5, TPOT: 0.100},
		MeanInput: 1738, MeanOutput: 91,
		SigmaInput: 0.7, SigmaOutput: 0.6,
		RatePerS: 0.55,
	}
}

// All returns the three scenarios in Table IV order.
func All() []Scenario {
	return []Scenario{Chatbot(), CodeCompletion(), Summarization()}
}

// ByName returns the scenario with the given name.
func ByName(name string) (Scenario, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("trace: unknown scenario %q", name)
}

// Generator produces the request stream of a scenario.
type Generator struct {
	scen   Scenario
	rng    *rng.Stream
	nextAt float64
	nextID int
	rate   float64
	mixCum []float64        // cumulative Mix weights (nil = single class)
	buf    []*serve.Request // Emit result backing, reused across ticks
}

// NewGenerator returns a generator with the scenario's default rate.
// Use SetRate to sweep offered load.
func NewGenerator(s Scenario, seed uint64) *Generator {
	g := &Generator{scen: s, rng: rng.New(seed), rate: s.RatePerS}
	if len(s.Mix) > 0 {
		g.mixCum = make([]float64, len(s.Mix))
		sum := 0.0
		for i, c := range s.Mix {
			sum += c.Weight
			g.mixCum[i] = sum
		}
	}
	g.scheduleNext(0)
	return g
}

// SetRate overrides the arrival rate (requests per second).
func (g *Generator) SetRate(r float64) {
	if r > 0 {
		g.rate = r
	}
}

func (g *Generator) scheduleNext(now float64) {
	if g.scen.Shape == nil {
		g.nextAt = now + g.rng.Exp(g.rate)
		return
	}
	// Thinning (Lewis-Shedler): draw candidates at the envelope rate
	// and accept with probability Factor(t)/MaxFactor(). Resolving the
	// next accepted arrival eagerly keeps NextEventAt exact. Shaper
	// validation guarantees Factor is bounded away from zero somewhere
	// on every envelope, so the loop terminates with probability 1.
	max := g.scen.Shape.MaxFactor()
	t := now
	for {
		t += g.rng.Exp(g.rate * max)
		f := g.scen.Shape.Factor(t)
		if f > 0 && g.rng.Float64()*max < f {
			g.nextAt = t
			return
		}
	}
}

func (g *Generator) sample(mean int, sigma float64, floor int) int {
	v := int(g.rng.LogNormal(float64(mean), sigma) + 0.5)
	if v < floor {
		v = floor
	}
	// Cap extreme tails at 8x the mean to keep iteration plans sane.
	if v > 8*mean {
		v = 8 * mean
	}
	return v
}

// pickComponent draws a mixture component index by cumulative weight.
func (g *Generator) pickComponent() int {
	u := g.rng.Float64() * g.mixCum[len(g.mixCum)-1]
	for i, c := range g.mixCum {
		if u < c {
			return i
		}
	}
	return len(g.mixCum) - 1
}

// Emit returns the requests arriving in (now, now+dt]. The returned
// slice (not the requests it points to) is reused by the next Emit;
// callers must consume it before then.
func (g *Generator) Emit(now, dt float64) []*serve.Request {
	out := g.buf[:0]
	for g.nextAt <= now+dt {
		g.nextID++
		promptLen, outputLen := g.sampleArrival()
		out = append(out, &serve.Request{
			ID:        g.nextID,
			Arrival:   g.nextAt,
			PromptLen: promptLen,
			OutputLen: outputLen,
		})
		g.scheduleNext(g.nextAt)
	}
	g.buf = out
	return out
}

// sampleArrival draws one arrival's (prompt, output) lengths, from the
// mixture when one is configured. The unmixed path draws exactly the
// two values the pre-mixture generator drew, in the same order, so
// existing streams replay bit-identically.
func (g *Generator) sampleArrival() (promptLen, outputLen int) {
	if g.mixCum != nil {
		c := g.scen.Mix[g.pickComponent()]
		return g.sample(c.MeanInput, c.SigmaInput, 8),
			g.sample(c.MeanOutput, c.SigmaOutput, 2)
	}
	return g.sample(g.scen.MeanInput, g.scen.SigmaInput, 8),
		g.sample(g.scen.MeanOutput, g.scen.SigmaOutput, 2)
}

// NextEventAt reports the absolute arrival time of the next request —
// the fast-forward horizon contract (DESIGN.md §9): no Emit call with
// now+dt strictly below this time produces a request.
func (g *Generator) NextEventAt() float64 { return g.nextAt }
