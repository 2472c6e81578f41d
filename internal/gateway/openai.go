package gateway

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"aum/internal/llm"
)

// OpenAI-compatible wire types (the subset the gateway understands;
// unknown request fields are ignored, matching upstream behavior).

type chatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

type chatRequest struct {
	Model    string        `json:"model"`
	Messages []chatMessage `json:"messages"`
	Stream   bool          `json:"stream"`
	// MaxTokens is the classic field; MaxCompletionTokens the current
	// one. The larger API surface maps both onto OutputLen.
	MaxTokens           int `json:"max_tokens"`
	MaxCompletionTokens int `json:"max_completion_tokens"`
}

type chatUsage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

type chatChoice struct {
	Index        int          `json:"index"`
	Message      *chatMessage `json:"message,omitempty"`
	Delta        *chatMessage `json:"delta,omitempty"`
	FinishReason *string      `json:"finish_reason"`
}

type chatCompletion struct {
	ID      string       `json:"id"`
	Object  string       `json:"object"`
	Created int64        `json:"created"`
	Model   string       `json:"model"`
	Choices []chatChoice `json:"choices"`
	Usage   *chatUsage   `json:"usage,omitempty"`
}

// Simulated response headers/trailers: the emulated latencies a load
// generator should compare its wall-clock observations against.
const (
	HeaderTTFT = "X-Aum-Simulated-Ttft-Seconds"
	HeaderTPOT = "X-Aum-Simulated-Tpot-Seconds"
	HeaderWarp = "X-Aum-Warp-Factor"
)

// fillerWords is the deterministic placeholder stream standing in for
// model output: token i is fillerWords[i mod len].
var fillerWords = []string{
	"the", "simulated", "fleet", "serves", "this", "completion",
	"token", "by", "token", "on", "an", "emulated", "schedule",
	"with", "no", "accelerator", "attached",
}

func tokenText(i int) string {
	w := fillerWords[i%len(fillerWords)]
	if i == 0 {
		return w
	}
	return " " + w
}

// estimatePromptTokens maps chat messages onto a prompt length with
// the ~4 chars/token heuristic, clamped to [1, max].
func estimatePromptTokens(msgs []chatMessage, max int) int {
	chars := 0
	for _, m := range msgs {
		chars += len(m.Role) + len(m.Content)
	}
	n := chars / 4
	if n < 1 {
		n = 1
	}
	if n > max {
		n = max
	}
	return n
}

// ModelsHandler serves GET /v1/models from the model zoo.
func (g *Gateway) ModelsHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		WriteError(w, http.StatusMethodNotAllowed, ErrMethod, "use GET")
		return
	}
	type modelEntry struct {
		ID      string `json:"id"`
		Object  string `json:"object"`
		Created int64  `json:"created"`
		OwnedBy string `json:"owned_by"`
	}
	resp := struct {
		Object string       `json:"object"`
		Data   []modelEntry `json:"data"`
	}{Object: "list"}
	for _, m := range llm.Zoo() {
		resp.Data = append(resp.Data, modelEntry{ID: m.Name, Object: "model", OwnedBy: "aum"})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// ChatCompletionsHandler serves POST /v1/chat/completions: validate,
// inject into the live fleet, then stream (SSE) or collect (JSON) the
// simulated tokens at the warped pace.
func (g *Gateway) ChatCompletionsHandler(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, ErrMethod, "use POST")
		return
	}
	if !g.Ready() {
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusServiceUnavailable, ErrUnavailable,
			"starting: fleet has not completed its first barrier")
		return
	}
	var req chatRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		WriteError(w, http.StatusBadRequest, ErrInvalidRequest, "malformed JSON body: "+err.Error())
		return
	}
	if req.Model != "" && req.Model != g.served.Name {
		WriteError(w, http.StatusNotFound, ErrNotFound,
			fmt.Sprintf("model %q not found; this fleet serves %q", req.Model, g.served.Name))
		return
	}
	if len(req.Messages) == 0 {
		WriteError(w, http.StatusBadRequest, ErrInvalidRequest, "messages must be non-empty")
		return
	}
	maxTok := req.MaxTokens
	if maxTok == 0 {
		maxTok = req.MaxCompletionTokens
	}
	if maxTok < 0 {
		WriteError(w, http.StatusBadRequest, ErrInvalidRequest, "max_tokens must be positive")
		return
	}
	if maxTok == 0 {
		maxTok = defaultTokens
	}
	if maxTok > maxTokens {
		maxTok = maxTokens
	}
	promptLen := estimatePromptTokens(req.Messages, maxPromptTokens)

	lr := g.admit(promptLen, maxTok)
	defer g.drop(lr.tid)
	if req.Stream {
		g.streamCompletion(w, r, lr, promptLen)
		return
	}
	g.jsonCompletion(w, r, lr, promptLen)
}

// writeOutcomeError maps a non-done outcome with no tokens onto the
// error envelope: shed becomes 429 with Retry-After (the
// serve.Admission backpressure contract), everything else 503.
func (g *Gateway) writeOutcomeError(w http.ResponseWriter, outcome string) {
	if outcome == "shed" {
		g.cShed.Inc()
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, ErrRateLimit,
			"request shed by admission control; retry later")
		return
	}
	WriteError(w, http.StatusServiceUnavailable, ErrOverloaded,
		"request "+outcome+" before completion")
}

// jsonCompletion is the stream:false path: collect every token event,
// pace to the simulated retirement instant, answer in one JSON body.
func (g *Gateway) jsonCompletion(w http.ResponseWriter, r *http.Request, lr *liveReq, promptLen int) {
	ctx := r.Context()
	var toks []event
	var out outcomeEvent
collect:
	for {
		select {
		case ev := <-lr.tokens:
			toks = append(toks, ev)
		case out = <-lr.outcome:
			// Token callbacks precede the outcome callback, so the
			// channel already holds the full stream; drain it.
			for {
				select {
				case ev := <-lr.tokens:
					toks = append(toks, ev)
				default:
					break collect
				}
			}
		case <-ctx.Done():
			return
		case <-g.done:
			WriteError(w, http.StatusServiceUnavailable, ErrUnavailable, "gateway shutting down")
			return
		}
	}
	if len(toks) == 0 {
		g.writeOutcomeError(w, out.outcome)
		return
	}
	p := pacer{g: g}
	if err := p.pace(ctx, out.simT); err != nil {
		return
	}
	ttft := toks[0].simT - lr.arrival
	tpot := 0.0
	if len(toks) > 1 {
		tpot = (toks[len(toks)-1].simT - toks[0].simT) / float64(len(toks)-1)
	}
	g.cTokens.Add(uint64(len(toks)))

	var sb strings.Builder
	for i := range toks {
		sb.WriteString(tokenText(i))
	}
	reason := "length"
	if out.outcome == "done" {
		reason = "stop"
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(HeaderTTFT, fmt.Sprintf("%.6f", ttft))
	w.Header().Set(HeaderTPOT, fmt.Sprintf("%.6f", tpot))
	w.Header().Set(HeaderWarp, fmt.Sprintf("%g", g.warp))
	_ = json.NewEncoder(w).Encode(chatCompletion{
		ID: fmt.Sprintf("chatcmpl-%d", lr.id), Object: "chat.completion",
		Created: time.Now().Unix(), Model: g.served.Name,
		Choices: []chatChoice{{
			Message:      &chatMessage{Role: "assistant", Content: sb.String()},
			FinishReason: &reason,
		}},
		Usage: &chatUsage{
			PromptTokens: promptLen, CompletionTokens: len(toks),
			TotalTokens: promptLen + len(toks),
		},
	})
}

// streamCompletion is the stream:true path: SSE chunks, each released
// at the wall instant its simulated completion time maps to, closed by
// a finish_reason chunk and the literal [DONE]. The simulated TPOT —
// unknown until the last token — travels as an HTTP trailer.
func (g *Gateway) streamCompletion(w http.ResponseWriter, r *http.Request, lr *liveReq, _ int) {
	ctx := r.Context()
	p := pacer{g: g}
	// First event decides between an error status and the SSE stream.
	var first event
	select {
	case first = <-lr.tokens:
	case out := <-lr.outcome:
		// Outcome before any token: nothing to stream.
		g.writeOutcomeError(w, out.outcome)
		return
	case <-ctx.Done():
		return
	case <-g.done:
		WriteError(w, http.StatusServiceUnavailable, ErrUnavailable, "gateway shutting down")
		return
	}
	if err := p.pace(ctx, first.simT); err != nil {
		return
	}

	enc := newChunkEncoder(fmt.Sprintf("chatcmpl-%d", lr.id), time.Now().Unix(), g.served.Name)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Trailer", HeaderTPOT)
	w.Header().Set(HeaderTTFT, fmt.Sprintf("%.6f", first.simT-lr.arrival))
	w.Header().Set(HeaderWarp, fmt.Sprintf("%g", g.warp))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	write := func(frame []byte) {
		_, _ = w.Write(frame) // a gone client surfaces through ctx
		if flusher != nil {
			flusher.Flush()
		}
	}
	write(enc.chunk("assistant", "", ""))
	write(enc.chunk("", tokenText(0), ""))
	n := 1
	firstT, lastT := first.simT, first.simT
	// release paces one token to its wall instant and writes its chunk;
	// false when the client left or the gateway is stopping.
	release := func(ev event) bool {
		if err := p.pace(ctx, ev.simT); err != nil {
			return false
		}
		write(enc.chunk("", tokenText(n), ""))
		n++
		lastT = ev.simT
		return true
	}
	finish := func(outcome string) {
		reason := "length"
		if outcome == "done" {
			reason = "stop"
		}
		write(enc.chunk("", "", reason))
		fmt.Fprint(w, "data: [DONE]\n\n")
		tpot := 0.0
		if n > 1 {
			tpot = (lastT - firstT) / float64(n-1)
		}
		w.Header().Set(HeaderTPOT, fmt.Sprintf("%.6f", tpot))
		if flusher != nil {
			flusher.Flush()
		}
		g.cTokens.Add(uint64(n))
	}
	for {
		select {
		case ev := <-lr.tokens:
			if !release(ev) {
				return
			}
		case out := <-lr.outcome:
			// Drain tokens buffered ahead of the outcome, then close.
			for {
				select {
				case ev := <-lr.tokens:
					if !release(ev) {
						return
					}
				default:
					finish(out.outcome)
					return
				}
			}
		case <-ctx.Done():
			return
		case <-g.done:
			finish("failed")
			return
		}
	}
}

// chunkEncoder writes one stream's SSE chunks. Every chunk of a stream
// carries the same id, created stamp and model, so the JSON before the
// delta is encoded once per stream, and a chunk appends only its delta
// and finish reason — the bytes json.Marshal writes for the
// chatCompletion chunk it stands for.
type chunkEncoder struct {
	prefix []byte // `data: {"id":…,"choices":[{"index":0,"delta":`
	buf    []byte
}

func newChunkEncoder(id string, created int64, model string) *chunkEncoder {
	b := appendJSONString([]byte(`data: {"id":`), id)
	b = append(b, `,"object":"chat.completion.chunk","created":`...)
	b = strconv.AppendInt(b, created, 10)
	b = append(b, `,"model":`...)
	b = appendJSONString(b, model)
	b = append(b, `,"choices":[{"index":0,"delta":`...)
	return &chunkEncoder{prefix: b}
}

// chunk returns the SSE frame of the chunk whose delta carries role and
// content and whose finish reason is finish ("" encodes null). The
// frame is overwritten by the next call.
func (e *chunkEncoder) chunk(role, content, finish string) []byte {
	b := append(e.buf[:0], e.prefix...)
	b = append(b, `{"role":`...)
	b = appendJSONString(b, role)
	b = append(b, `,"content":`...)
	b = appendJSONString(b, content)
	b = append(b, `},"finish_reason":`...)
	if finish == "" {
		b = append(b, "null"...)
	} else {
		b = appendJSONString(b, finish)
	}
	e.buf = append(b, "}]}\n\n"...)
	return e.buf
}

// appendJSONString appends s as encoding/json writes a string: text
// json would not escape is copied between quotes, anything else goes
// through json.Marshal.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
