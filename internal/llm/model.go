// Package llm models transformer inference workloads at the
// granularity AUM cares about: per-iteration FLOPs split across AMX and
// AVX units, DRAM traffic split into compulsory streaming and
// cache-sensitive reuse, and the representative GEMM shapes that drive
// unit efficiency (Section IV-A3: prefill GEMMs like 8192x4096x22016 vs
// decode GEMMs like 16x4096x22016).
//
// The model zoo covers the six architectures of Table II. All
// quantities are derived from the architectural dimensions, so the AU
// usage variation the paper characterizes — prefill compute-bound and
// AMX-dominant, decode bandwidth-bound and AVX-leaning, MoE relieving
// memory pressure — emerges from the arithmetic rather than from
// hard-coded targets.
package llm

import (
	"fmt"
	"math"
)

// Phase is one of the two serving phases.
type Phase int

const (
	// Prefill processes the whole prompt to produce the first token.
	Prefill Phase = iota
	// Decode produces subsequent tokens one iteration at a time.
	Decode
)

// String returns the phase name.
func (p Phase) String() string {
	if p == Prefill {
		return "prefill"
	}
	return "decode"
}

// Model describes one transformer architecture.
type Model struct {
	Name       string
	SizeLabel  string // e.g. "7B"
	HiddenDim  int
	FFNDim     int // per-expert FFN width for MoE models
	Layers     int
	Heads      int
	KVHeads    int
	VocabSize  int
	DTypeBytes int // weight/activation element size (2 = BF16)

	// MoE configuration; zero for dense models.
	Experts       int
	ActiveExperts int
}

// Dense reports whether the model is a dense (non-MoE) architecture.
func (m Model) Dense() bool { return m.Experts == 0 }

// headDim returns the per-head dimension.
func (m Model) headDim() int { return m.HiddenDim / m.Heads }

// kvDim returns the total key (or value) width per token.
func (m Model) kvDim() int { return m.headDim() * m.KVHeads }

// LinearParams returns the parameter count of the per-layer linear
// projections actually multiplied per token (attention projections plus
// the FFN parameters of the experts a token activates), excluding
// embeddings.
func (m Model) LinearParams() float64 {
	d := float64(m.HiddenDim)
	attn := d*d + 2*d*float64(m.kvDim()) + d*d // Q, K, V, O
	ffnWidth := float64(m.FFNDim)
	experts := 1.0
	if !m.Dense() {
		experts = float64(m.ActiveExperts)
	}
	ffn := 3 * d * ffnWidth * experts // gate, up, down
	return float64(m.Layers) * (attn + ffn)
}

// TotalParams returns the full parameter count including all experts
// and the LM head.
func (m Model) TotalParams() float64 {
	d := float64(m.HiddenDim)
	attn := d*d + 2*d*float64(m.kvDim()) + d*d
	experts := 1.0
	if !m.Dense() {
		experts = float64(m.Experts)
	}
	ffn := 3 * d * float64(m.FFNDim) * experts
	head := d * float64(m.VocabSize)
	return float64(m.Layers)*(attn+ffn) + head
}

// KVBytesPerToken returns the KV-cache bytes appended per token.
func (m Model) KVBytesPerToken() float64 {
	return 2 * float64(m.kvDim()) * float64(m.Layers) * float64(m.DTypeBytes)
}

// expertCoverage returns the fraction of FFN expert weights touched by
// one decode iteration of the given batch. Tokens activate
// ActiveExperts of Experts each; temporal locality across iterations
// (hot experts stay hot) is modelled by discounting the batch to its
// square root, matching the paper's observation that sparse expert
// activation relieves memory pressure (Section IV-A2).
func (m Model) expertCoverage(batch int) float64 {
	if m.Dense() {
		return 1
	}
	if batch < 1 {
		batch = 1
	}
	eff := math.Sqrt(float64(batch))
	perTok := float64(m.ActiveExperts) / float64(m.Experts)
	return 1 - math.Pow(1-perTok, eff)
}

// sizeStallFactor scales the latent memory-stall pressure with model
// size relative to llama2-7b: larger dense models stress the memory
// path harder per unit of compute (Table II's rising backend/DRAM
// bounds), while MoE models are discounted to their activated
// parameters.
func (m Model) sizeStallFactor() float64 {
	const ref = 6.6e9 // llama2-7b linear parameters
	f := math.Sqrt(m.LinearParams() / ref)
	if f < 0.6 {
		f = 0.6
	}
	if f > 1.5 {
		f = 1.5
	}
	return f
}

// Zoo returns the evaluated models in Table II order.
func Zoo() []Model {
	return []Model{Phi3Mini(), Llama2_7B(), Llama3_8B(), Gemma2_9B(), Llama2_13B(), Qwen3_30B_A3B()}
}

// ByName returns a model from the zoo by name.
func ByName(name string) (Model, error) {
	for _, m := range Zoo() {
		if m.Name == name {
			return m, nil
		}
	}
	return Model{}, fmt.Errorf("llm: unknown model %q", name)
}

// Llama2_7B is the paper's primary serving model.
func Llama2_7B() Model {
	return Model{
		Name: "llama2-7b", SizeLabel: "7B",
		HiddenDim: 4096, FFNDim: 11008, Layers: 32,
		Heads: 32, KVHeads: 32, VocabSize: 32000, DTypeBytes: 2,
	}
}

// Llama2_13B is the larger dense Llama2 (Table II lists it as 14B-class).
func Llama2_13B() Model {
	return Model{
		Name: "llama2-13b", SizeLabel: "14B",
		HiddenDim: 5120, FFNDim: 13824, Layers: 40,
		Heads: 40, KVHeads: 40, VocabSize: 32000, DTypeBytes: 2,
	}
}

// Phi3Mini is Phi-3-Mini-128K-Instruct (3.8B).
func Phi3Mini() Model {
	return Model{
		Name: "phi-3-mini", SizeLabel: "3.8B",
		HiddenDim: 3072, FFNDim: 8192, Layers: 32,
		Heads: 32, KVHeads: 32, VocabSize: 32064, DTypeBytes: 2,
	}
}

// Llama3_8B is Llama3 8B with grouped-query attention.
func Llama3_8B() Model {
	return Model{
		Name: "llama3-8b", SizeLabel: "8B",
		HiddenDim: 4096, FFNDim: 14336, Layers: 32,
		Heads: 32, KVHeads: 8, VocabSize: 128256, DTypeBytes: 2,
	}
}

// Gemma2_9B is Gemma2 9B.
func Gemma2_9B() Model {
	return Model{
		Name: "gemma2-9b", SizeLabel: "9B",
		HiddenDim: 3584, FFNDim: 14336, Layers: 42,
		Heads: 16, KVHeads: 8, VocabSize: 256128, DTypeBytes: 2,
	}
}

// Qwen3_30B_A3B is the Qwen3 30B mixture-of-experts model with ~3B
// active parameters per token.
func Qwen3_30B_A3B() Model {
	return Model{
		Name: "qwen3-30b-a3b", SizeLabel: "30B",
		HiddenDim: 2048, FFNDim: 768, Layers: 48,
		Heads: 32, KVHeads: 4, VocabSize: 151936, DTypeBytes: 2,
		Experts: 128, ActiveExperts: 8,
	}
}
