package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"aum/internal/cluster"
	"aum/internal/manager"
	"aum/internal/platform"
	"aum/internal/serve"
	"aum/internal/telemetry"
)

// fourMachineFleet is the e2e topology the satellite task names: four
// mixed machines under the default policy.
// negativeRateFleet is fourMachineFleet with an invalid arrival rate.
func negativeRateFleet() cluster.Config {
	fc := fourMachineFleet()
	fc.RatePerS = -1
	return fc
}

func fourMachineFleet() cluster.Config {
	return cluster.Config{
		Machines: []cluster.MachineSpec{
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenA(), Mgr: manager.AllAU{}},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
			{Plat: platform.GenB(), Mgr: manager.AllAU{}},
		},
		HorizonS: 4,
	}
}

func newTestGateway(t *testing.T, opts ...Option) (*Gateway, *httptest.Server) {
	t.Helper()
	g, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(func() {
		srv.Close()
		if _, err := g.Stop(); err != nil {
			t.Errorf("gateway stop: %v", err)
		}
	})
	return g, srv
}

func waitReady(t *testing.T, g *Gateway) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !g.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("gateway never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func completionBody(stream bool, model string, maxTokens int) *bytes.Buffer {
	body := map[string]any{
		"model":      model,
		"stream":     stream,
		"max_tokens": maxTokens,
		"messages": []map[string]string{
			{"role": "user", "content": "say something about accelerator units"},
		},
	}
	b, _ := json.Marshal(body)
	return bytes.NewBuffer(b)
}

// TestStreamingChatCompletionE2E is the satellite e2e: POST a
// streaming completion against a 4-machine fleet at WarpFactor 100
// and assert SSE chunk ordering, the terminal [DONE], and that the
// TTFT header matches the simulated first-token time to within one
// tick.
func TestStreamingChatCompletionE2E(t *testing.T) {
	g, srv := newTestGateway(t, WithFleet(fourMachineFleet()), WithWarpFactor(100))
	waitReady(t, g)

	resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
		completionBody(true, "", 6))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	ttft, err := strconv.ParseFloat(resp.Header.Get(HeaderTTFT), 64)
	if err != nil || ttft <= 0 {
		t.Fatalf("TTFT header = %q, want a positive simulated latency", resp.Header.Get(HeaderTTFT))
	}
	if warp := resp.Header.Get(HeaderWarp); warp != "100" {
		t.Fatalf("warp header = %q, want 100", warp)
	}

	var chunks []chatCompletion
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		if payload == "[DONE]" {
			sawDone = true
			continue
		}
		if sawDone {
			t.Fatalf("data after [DONE]: %q", payload)
		}
		var c chatCompletion
		if err := json.Unmarshal([]byte(payload), &c); err != nil {
			t.Fatalf("bad chunk %q: %v", payload, err)
		}
		chunks = append(chunks, c)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawDone {
		t.Fatal("stream did not end with [DONE]")
	}
	// Ordering: role chunk, content chunks, terminal finish_reason.
	if len(chunks) < 3 {
		t.Fatalf("only %d chunks", len(chunks))
	}
	if chunks[0].Choices[0].Delta.Role != "assistant" {
		t.Fatalf("first chunk is not the assistant role chunk: %+v", chunks[0])
	}
	last := chunks[len(chunks)-1]
	if last.Choices[0].FinishReason == nil || *last.Choices[0].FinishReason != "stop" {
		t.Fatalf("last chunk finish_reason = %v, want stop", last.Choices[0].FinishReason)
	}
	for _, c := range chunks[1 : len(chunks)-1] {
		if c.Choices[0].Delta == nil || c.Choices[0].Delta.Content == "" {
			t.Fatalf("middle chunk without content delta: %+v", c)
		}
		if c.Object != "chat.completion.chunk" {
			t.Fatalf("chunk object = %q", c.Object)
		}
	}
	// TPOT travels as a trailer, known only after the last token.
	if tpot := resp.Trailer.Get(HeaderTPOT); tpot == "" {
		t.Fatal("missing TPOT trailer")
	}

	// The header must echo the simulated first-token instant to within
	// one tick (one barrier interval): the tracer's recent record holds
	// the ground truth.
	var recTTFT float64
	for _, r := range g.Tracer().Recent(16) {
		if r.Outcome == "done" && r.TTFTS > 0 {
			recTTFT = r.TTFTS
		}
	}
	if recTTFT == 0 {
		t.Fatal("no completed trace recorded")
	}
	barrier := g.sess.Config().BarrierS
	if diff := ttft - recTTFT; diff > barrier+1e-9 || diff < -(barrier+1e-9) {
		t.Fatalf("header TTFT %.6f vs simulated %.6f: differ by more than one %.3fs tick",
			ttft, recTTFT, barrier)
	}
}

func TestNonStreamingChatCompletion(t *testing.T) {
	g, srv := newTestGateway(t, WithFleet(fourMachineFleet()), WithWarpFactor(200))
	waitReady(t, g)

	resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
		completionBody(false, g.Model().Name, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var c chatCompletion
	if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
		t.Fatal(err)
	}
	if c.Object != "chat.completion" || len(c.Choices) != 1 {
		t.Fatalf("bad completion: %+v", c)
	}
	msg := c.Choices[0].Message
	if msg == nil || msg.Role != "assistant" || msg.Content == "" {
		t.Fatalf("bad message: %+v", msg)
	}
	if c.Usage == nil || c.Usage.CompletionTokens == 0 ||
		c.Usage.TotalTokens != c.Usage.PromptTokens+c.Usage.CompletionTokens {
		t.Fatalf("bad usage: %+v", c.Usage)
	}
	if got := len(strings.Fields(msg.Content)); got != c.Usage.CompletionTokens {
		t.Fatalf("content holds %d words, usage says %d tokens", got, c.Usage.CompletionTokens)
	}
	if _, err := strconv.ParseFloat(resp.Header.Get(HeaderTTFT), 64); err != nil {
		t.Fatalf("TTFT header %q: %v", resp.Header.Get(HeaderTTFT), err)
	}
	if _, err := strconv.ParseFloat(resp.Header.Get(HeaderTPOT), 64); err != nil {
		t.Fatalf("TPOT header %q: %v", resp.Header.Get(HeaderTPOT), err)
	}
}

// TestShedMapsTo429 floods a single tightly-bounded machine and
// expects at least one request shed as HTTP 429 with Retry-After.
func TestShedMapsTo429(t *testing.T) {
	fc := cluster.Config{
		Machines:  []cluster.MachineSpec{{Plat: platform.GenA(), Mgr: manager.AllAU{}}},
		Admission: serve.Admission{MaxQueue: 1},
		HorizonS:  4,
	}
	g, srv := newTestGateway(t, WithFleet(fc), WithWarpFactor(100))
	waitReady(t, g)

	const n = 12
	long := strings.Repeat("a long prompt to keep prefill busy ", 400)
	statuses := make([]int, n)
	retryAfter := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(map[string]any{
				"max_tokens": 4,
				"messages":   []map[string]string{{"role": "user", "content": long}},
			})
			resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
				bytes.NewBuffer(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()
	sheds := 0
	for i, st := range statuses {
		if st == http.StatusTooManyRequests {
			sheds++
			if retryAfter[i] == "" {
				t.Fatalf("429 response %d missing Retry-After", i)
			}
		}
	}
	if sheds == 0 {
		t.Fatalf("no request shed as 429 under MaxQueue=1 flood; statuses = %v", statuses)
	}
	if v, _ := g.Registry().Snapshot().CounterValue("aum_gateway_shed_total"); v == 0 {
		t.Fatal("aum_gateway_shed_total did not count the sheds")
	}
}

func TestErrorEnvelopes(t *testing.T) {
	g, srv := newTestGateway(t, WithFleet(fourMachineFleet()), WithWarpFactor(400))
	waitReady(t, g)

	checkEnvelope := func(resp *http.Response, wantStatus int, wantType string) {
		t.Helper()
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("status = %d, want %d", resp.StatusCode, wantStatus)
		}
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("error body is not the shared envelope: %v", err)
		}
		if env.Error.Type != wantType || env.Error.Message == "" {
			t.Fatalf("envelope = %+v, want type %q with a message", env, wantType)
		}
	}

	resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(resp, http.StatusBadRequest, ErrInvalidRequest)

	resp, err = http.Post(srv.URL+"/v1/chat/completions", "application/json",
		completionBody(false, "gpt-4o", 4))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(resp, http.StatusNotFound, ErrNotFound)

	resp, err = http.Post(srv.URL+"/v1/chat/completions", "application/json",
		strings.NewReader(`{"messages":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(resp, http.StatusBadRequest, ErrInvalidRequest)

	resp, err = http.Get(srv.URL + "/v1/chat/completions")
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(resp, http.StatusMethodNotAllowed, ErrMethod)

	resp, err = http.Get(srv.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	checkEnvelope(resp, http.StatusNotFound, ErrNotFound)
}

func TestModelsEndpoint(t *testing.T) {
	g, srv := newTestGateway(t, WithFleet(fourMachineFleet()), WithWarpFactor(400))
	_ = g
	resp, err := http.Get(srv.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var list struct {
		Object string `json:"object"`
		Data   []struct {
			ID     string `json:"id"`
			Object string `json:"object"`
		} `json:"data"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Object != "list" || len(list.Data) < 5 {
		t.Fatalf("models list = %+v, want the zoo", list)
	}
	found := false
	for _, m := range list.Data {
		if m.ID == g.Model().Name {
			found = true
		}
		if m.Object != "model" {
			t.Fatalf("entry object = %q", m.Object)
		}
	}
	if !found {
		t.Fatalf("served model %q missing from /v1/models", g.Model().Name)
	}
}

// TestReadiness503BeforeFirstBarrier uses a tiny warp factor so the
// first barrier is minutes of wall time away.
func TestReadiness503BeforeFirstBarrier(t *testing.T) {
	g, srv := newTestGateway(t, WithFleet(fourMachineFleet()), WithWarpFactor(1e-4))
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readiness before first barrier = %d, want 503", resp.StatusCode)
	}
	var env errorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Error.Message, "starting") {
		t.Fatalf("message = %q, want a starting notice", env.Error.Message)
	}
	// Completions are 503 too, with Retry-After.
	resp2, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
		completionBody(false, "", 2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Fatalf("completion before ready = %d (Retry-After %q), want 503 with Retry-After",
			resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}
	_ = g
}

func TestFleetDegradedHelper(t *testing.T) {
	reg := telemetry.NewRegistry()
	if reason, d := FleetDegraded(reg.Snapshot(), 0.95); d {
		t.Fatalf("degraded without the gauge: %q", reason)
	}
	reg.Gauge("aum_fleet_availability").Set(0.90)
	reason, d := FleetDegraded(reg.Snapshot(), 0.95)
	if !d || !strings.Contains(reason, "0.9000") {
		t.Fatalf("FleetDegraded = (%q, %v), want degraded with the value", reason, d)
	}
	if _, d := FleetDegraded(reg.Snapshot(), 0); d {
		t.Fatal("threshold 0 must disable the degraded state")
	}
	reg.Gauge("aum_fleet_availability").Set(0.99)
	if _, d := FleetDegraded(reg.Snapshot(), 0.95); d {
		t.Fatal("availability above threshold reported degraded")
	}
}

func TestGatewayTelemetrySeries(t *testing.T) {
	g, srv := newTestGateway(t, WithFleet(fourMachineFleet()), WithWarpFactor(200))
	waitReady(t, g)
	resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
		completionBody(false, "", 3))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	s := g.Registry().Snapshot()
	if v, ok := s.CounterValue("aum_gateway_requests_total"); !ok || v == 0 {
		t.Fatalf("aum_gateway_requests_total = %d, %v", v, ok)
	}
	if v, ok := s.CounterValue("aum_gateway_tokens_released_total"); !ok || v == 0 {
		t.Fatalf("aum_gateway_tokens_released_total = %d, %v", v, ok)
	}
	if _, ok := s.GaugeValue("aum_gateway_inflight"); !ok {
		t.Fatal("aum_gateway_inflight gauge missing")
	}
	if v, ok := s.GaugeValue("aum_gateway_warp_ratio"); !ok || v <= 0 {
		t.Fatalf("aum_gateway_warp_ratio = %g, %v", v, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := [][]Option{
		{WithFleet(fourMachineFleet()), WithWarpFactor(-1)},
		{WithFleet(negativeRateFleet())},
		{}, // empty fleet
	}
	for i, opts := range bad {
		if _, err := New(opts...); err == nil {
			t.Fatalf("config %d validated, want error", i)
		} else if !strings.Contains(err.Error(), "Config.") {
			t.Fatalf("config %d error %q does not name the field", i, err)
		}
	}
}

// A request that sets no max_tokens gets 32 tokens; one that asks for
// more than the gateway's cap gets the cap.
func TestOmittedMaxTokensDefault(t *testing.T) {
	g, srv := newTestGateway(t, WithFleet(fourMachineFleet()), WithWarpFactor(200))
	waitReady(t, g)
	for _, tc := range []struct{ maxTokens, want int }{{0, defaultTokens}, {4 * maxTokens, maxTokens}} {
		resp, err := http.Post(srv.URL+"/v1/chat/completions", "application/json",
			completionBody(false, g.Model().Name, tc.maxTokens))
		if err != nil {
			t.Fatal(err)
		}
		var c chatCompletion
		err = json.NewDecoder(resp.Body).Decode(&c)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if c.Usage == nil || c.Usage.CompletionTokens != tc.want {
			t.Fatalf("MaxTokens %d: usage %+v, want %d completion tokens", tc.maxTokens, c.Usage, tc.want)
		}
	}
}

func TestTokenTextDeterministic(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		sb.WriteString(tokenText(i))
	}
	words := strings.Fields(sb.String())
	if len(words) != 40 {
		t.Fatalf("40 tokens render %d words", len(words))
	}
	if fmt.Sprint(words[0]) != fillerWords[0] {
		t.Fatalf("first word %q", words[0])
	}
}

// TestChunkEncoderMatchesMarshal pins the stream writer's bytes: each
// chunk is the SSE frame of json.Marshal of the chatCompletion chunk it
// stands for — the role chunk, tokens 0–40 (past a wrap of
// fillerWords) and both finish reasons, under a model name json must
// escape.
func TestChunkEncoderMatchesMarshal(t *testing.T) {
	const id, created, model = "chatcmpl-7", int64(1700000000), `llama <"q&a">`
	enc := newChunkEncoder(id, created, model)
	check := func(got []byte, delta chatMessage, finish *string) {
		t.Helper()
		b, err := json.Marshal(chatCompletion{
			ID: id, Object: "chat.completion.chunk", Created: created, Model: model,
			Choices: []chatChoice{{Delta: &delta, FinishReason: finish}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := "data: " + string(b) + "\n\n"; string(got) != want {
			t.Fatalf("chunk bytes differ from json.Marshal\n got %q\nwant %q", got, want)
		}
	}
	check(enc.chunk("assistant", "", ""), chatMessage{Role: "assistant"}, nil)
	for i := 0; i <= 40; i++ {
		check(enc.chunk("", tokenText(i), ""), chatMessage{Content: tokenText(i)}, nil)
	}
	for _, reason := range []string{"stop", "length"} {
		check(enc.chunk("", "", reason), chatMessage{}, &reason)
	}
}

// TestStartStopCyclesLeakNoGoroutines runs five gateway lifetimes, each
// serving one streamed completion, and checks that the goroutine count
// after every later cycle settles at or below its level after the
// first: the driver, the handlers and the HTTP plumbing all exit, and
// the fleet's barrier helpers are parked for reuse, not leaked.
func TestStartStopCyclesLeakNoGoroutines(t *testing.T) {
	cycle := func() {
		g, err := New(WithFleet(fourMachineFleet()), WithWarpFactor(100))
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(g.Handler())
		client := &http.Client{Transport: &http.Transport{}}
		waitReady(t, g)
		resp, err := client.Post(srv.URL+"/v1/chat/completions", "application/json", completionBody(true, "", 6))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		client.CloseIdleConnections()
		srv.Close()
		if _, err := g.Stop(); err != nil {
			t.Fatal(err)
		}
	}
	// settled polls the goroutine count for up to d and returns the
	// lowest reading, early once it is at or below limit.
	settled := func(limit int, d time.Duration) int {
		low := runtime.NumGoroutine()
		for end := time.Now().Add(d); low > limit && time.Now().Before(end); {
			time.Sleep(5 * time.Millisecond)
			low = min(low, runtime.NumGoroutine())
		}
		return low
	}
	cycle()
	first := settled(0, 200*time.Millisecond)
	for c := 2; c <= 5; c++ {
		cycle()
		if n := settled(first, 5*time.Second); n > first {
			t.Fatalf("cycle %d: %d goroutines, %d after the first cycle", c, n, first)
		}
	}
}
