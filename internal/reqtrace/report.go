package reqtrace

import "sort"

// RequestTrace is the externally visible snapshot of one finished
// request: its span tree and blame vectors, served by aumd /requests
// and consumed by the conservation property tests.
type RequestTrace struct {
	TraceID   uint64             `json:"trace_id"`
	Class     int                `json:"class"`
	ReqID     int                `json:"req_id"`
	Outcome   string             `json:"outcome"`
	Attempts  int                `json:"attempts"`
	Tokens    int                `json:"tokens"`
	ArrivalS  float64            `json:"arrival_s"`
	TTFTS     float64            `json:"ttft_s,omitempty"`
	E2ES      float64            `json:"e2e_s,omitempty"`
	Spans     []Span             `json:"spans"`
	BlameTTFT map[string]float64 `json:"blame_ttft,omitempty"`
	BlameTPOT map[string]float64 `json:"blame_tpot,omitempty"`
}

func blameMap(v [NumCategories]float64) map[string]float64 {
	m := make(map[string]float64, NumCategories)
	for c := 0; c < NumCategories; c++ {
		if v[c] != 0 {
			m[Category(c).String()] = v[c]
		}
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

func (r *rec) snapshot() RequestTrace {
	class, id := SplitTraceID(r.tid)
	out := RequestTrace{
		TraceID: r.tid, Class: class, ReqID: id,
		Outcome: r.outcome, Attempts: r.attempts, Tokens: r.tokens,
		ArrivalS:  r.arrival,
		Spans:     append([]Span(nil), r.spans...),
		BlameTTFT: blameMap(r.blameH),
		BlameTPOT: blameMap(r.blameL),
	}
	if r.outcome == "done" {
		out.TTFTS = r.firstToken - r.arrival
		out.E2ES = r.retiredAt - r.arrival
	}
	return out
}

// CategoryBlame is one row of the fleet-wide blame table.
type CategoryBlame struct {
	Category  string  `json:"category"`
	TTFTS     float64 `json:"ttft_s"`
	TPOTS     float64 `json:"tpot_s"`
	TTFTShare float64 `json:"ttft_share"`
	TPOTShare float64 `json:"tpot_share"`
}

// BurnPoint is one window of the SLO burn-rate timeline.
type BurnPoint struct {
	TS        float64 `json:"t_s"`
	TTFTN     int     `json:"ttft_n"`
	TTFTViol  int     `json:"ttft_viol"`
	TokenN    int     `json:"tokens_n"`
	TokenViol int     `json:"tokens_viol"`
	TTFTBurn  float64 `json:"ttft_burn"`
	TPOTBurn  float64 `json:"tpot_burn"`
}

// BurnReport is the windowed SLO violation-rate series with percentile
// summaries over the non-empty windows.
type BurnReport struct {
	WindowS  float64     `json:"window_s"`
	Points   []BurnPoint `json:"points"`
	TTFTP50  float64     `json:"ttft_burn_p50"`
	TTFTP90  float64     `json:"ttft_burn_p90"`
	TTFTP99  float64     `json:"ttft_burn_p99"`
	TPOTP50  float64     `json:"tpot_burn_p50"`
	TPOTP90  float64     `json:"tpot_burn_p90"`
	TPOTP99  float64     `json:"tpot_burn_p99"`
	TTFTPeak float64     `json:"ttft_burn_peak"`
	TPOTPeak float64     `json:"tpot_burn_peak"`
}

// BlameReport is the fleet-wide critical-path decomposition: where the
// TTFT seconds and decode seconds of every completed request went,
// plus the SLO burn-rate timeline. Sampled counts every request the
// tracer recorded.
type BlameReport struct {
	Sampled    int             `json:"sampled"`
	Completed  int             `json:"completed"`
	Shed       int             `json:"shed"`
	Dropped    int             `json:"dropped"`
	Failed     int             `json:"failed"`
	InFlight   int             `json:"in_flight"`
	Tokens     int             `json:"tokens"`
	MeanTTFTS  float64         `json:"mean_ttft_s"`
	MeanE2ES   float64         `json:"mean_e2e_s"`
	TTFTTotalS float64         `json:"ttft_total_s"`
	TPOTTotalS float64         `json:"tpot_total_s"`
	Categories []CategoryBlame `json:"categories"`
	Burn       BurnReport      `json:"burn"`
}

// Share returns the named category's share of the report's TTFT-side
// blame mass (0 when there is none).
func (b BlameReport) Share(category string) float64 {
	for _, c := range b.Categories {
		if c.Category == category {
			return c.TTFTShare
		}
	}
	return 0
}

// quantile returns the q-th quantile (0..1) of sorted xs by the
// nearest-rank method; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Publish folds finished records into the aggregate and refreshes the
// aum_blame_* gauges. It must be called from single-threaded code only
// (the cluster barrier tail, the colo loop) — that restriction is what
// makes the float fold width-deterministic.
func (t *Tracer) Publish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.fold()
	var ttftTot, tpotTot float64
	for c := 0; c < NumCategories; c++ {
		ttftTot += t.agg.blameH[c]
		tpotTot += t.agg.blameL[c]
	}
	for c := 0; c < NumCategories; c++ {
		t.gBlame[0][c].Set(t.agg.blameH[c])
		t.gBlame[1][c].Set(t.agg.blameL[c])
	}
	if n := len(t.windows); n > 0 {
		w := t.windows[n-1]
		if w.ttftN > 0 {
			t.gBurn[0].Set(float64(w.ttftViol) / float64(w.ttftN))
		}
		if w.tokN > 0 {
			t.gBurn[1].Set(float64(w.tokViol) / float64(w.tokN))
		}
	}
	t.gSampled.Set(float64(t.sampled))
	t.gCompleted.Set(float64(t.agg.completed))
	t.mu.Unlock()
}

// Report folds and returns the fleet-wide blame table and burn-rate
// timeline. Single-threaded callers only, like Publish.
func (t *Tracer) Report() BlameReport {
	if t == nil {
		return BlameReport{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fold()

	rep := BlameReport{
		Sampled:   t.sampled,
		Completed: t.agg.completed,
		Shed:      t.agg.shed,
		Dropped:   t.agg.dropped,
		Failed:    t.agg.failed,
		InFlight:  len(t.live),
		Tokens:    t.agg.tokens,
	}
	if t.agg.completed > 0 {
		rep.MeanTTFTS = t.agg.ttftSum / float64(t.agg.completed)
		rep.MeanE2ES = t.agg.e2eSum / float64(t.agg.completed)
	}
	for c := 0; c < NumCategories; c++ {
		rep.TTFTTotalS += t.agg.blameH[c]
		rep.TPOTTotalS += t.agg.blameL[c]
	}
	rep.Categories = make([]CategoryBlame, NumCategories)
	for c := 0; c < NumCategories; c++ {
		cb := CategoryBlame{
			Category: Category(c).String(),
			TTFTS:    t.agg.blameH[c],
			TPOTS:    t.agg.blameL[c],
		}
		if rep.TTFTTotalS > 0 {
			cb.TTFTShare = cb.TTFTS / rep.TTFTTotalS
		}
		if rep.TPOTTotalS > 0 {
			cb.TPOTShare = cb.TPOTS / rep.TPOTTotalS
		}
		rep.Categories[c] = cb
	}
	rep.Burn = t.burnLocked()
	return rep
}

// burnLocked builds the burn-rate timeline. Caller holds mu.
func (t *Tracer) burnLocked() BurnReport {
	b := BurnReport{WindowS: windowS}
	var ttftRates, tpotRates []float64
	for i, w := range t.windows {
		if w.ttftN == 0 && w.tokN == 0 {
			continue
		}
		p := BurnPoint{
			TS:    float64(i) * windowS,
			TTFTN: w.ttftN, TTFTViol: w.ttftViol,
			TokenN: w.tokN, TokenViol: w.tokViol,
		}
		if w.ttftN > 0 {
			p.TTFTBurn = float64(w.ttftViol) / float64(w.ttftN)
			ttftRates = append(ttftRates, p.TTFTBurn)
			if p.TTFTBurn > b.TTFTPeak {
				b.TTFTPeak = p.TTFTBurn
			}
		}
		if w.tokN > 0 {
			p.TPOTBurn = float64(w.tokViol) / float64(w.tokN)
			tpotRates = append(tpotRates, p.TPOTBurn)
			if p.TPOTBurn > b.TPOTPeak {
				b.TPOTPeak = p.TPOTBurn
			}
		}
		b.Points = append(b.Points, p)
	}
	sort.Float64s(ttftRates)
	sort.Float64s(tpotRates)
	b.TTFTP50, b.TTFTP90, b.TTFTP99 = quantile(ttftRates, 0.50), quantile(ttftRates, 0.90), quantile(ttftRates, 0.99)
	b.TPOTP50, b.TPOTP90, b.TPOTP99 = quantile(tpotRates, 0.50), quantile(tpotRates, 0.90), quantile(tpotRates, 0.99)
	return b
}

// Recent folds and returns up to n most recently finished request
// traces, oldest first. Single-threaded callers only.
func (t *Tracer) Recent(n int) []RequestTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fold()
	recs := t.recent
	if n > 0 && len(recs) > n {
		recs = recs[len(recs)-n:]
	}
	out := make([]RequestTrace, len(recs))
	for i, r := range recs {
		out[i] = r.snapshot()
	}
	return out
}
