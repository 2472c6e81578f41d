package workload

import (
	"fmt"

	"aum/internal/machine"
	"aum/internal/power"
	"aum/internal/rng"
	"aum/internal/roofline"
	"aum/internal/topdown"
)

// AUService serves an AU-accelerated application (for example Faiss
// vector search) as a latency-critical machine workload: queries arrive
// as a Poisson stream and are served FCFS in fixed-size batches, each
// batch one AU kernel execution. Section VIII claims the paper's
// profile-control methodology "is applicable to all AU-enabled
// benchmarks besides LLM serving"; this type is what makes that claim
// testable in the harness.
type AUService struct {
	app      AUApp
	dim      int
	batch    int
	ratePerS float64
	sloS     float64
	stream   *rng.Stream

	// Live state.
	arrivals []float64 // arrival times of queued queries (from head)
	head     int       // index of the first queued query
	nextAt   float64
	inflight float64 // fraction of the current batch kernel remaining
	servingN int     // queries in the in-flight batch

	// Cumulative statistics.
	QueriesDone int
	QueriesMet  int
	LatencySum  float64
}

// NewAUService builds a service for the app with the given query
// dimensionality, serving batch, arrival rate, and latency SLO.
func NewAUService(app AUApp, dim, batch int, ratePerS, sloS float64, seed uint64) *AUService {
	if batch < 1 {
		batch = 1
	}
	s := &AUService{
		app: app, dim: dim, batch: batch,
		ratePerS: ratePerS, sloS: sloS,
		stream: rng.New(seed),
	}
	s.nextAt = s.stream.Exp(ratePerS)
	return s
}

// Name implements machine.Workload.
func (s *AUService) Name() string { return fmt.Sprintf("ausvc-%s", s.app.Name) }

// GuaranteeRatio returns the fraction of queries meeting the SLO.
func (s *AUService) GuaranteeRatio() float64 {
	if s.QueriesDone == 0 {
		return 1
	}
	return float64(s.QueriesMet) / float64(s.QueriesDone)
}

// MeanLatencyS returns the average query latency.
func (s *AUService) MeanLatencyS() float64 {
	if s.QueriesDone == 0 {
		return 0
	}
	return s.LatencySum / float64(s.QueriesDone)
}

// batchCost returns the wall time of one batch kernel under env.
func (s *AUService) batchCost(env machine.Env) (timeS, bytes float64) {
	g := s.app.Shape(s.dim, s.batch)
	flops := s.app.Flops(s.dim, s.batch)
	bytes = s.app.Bytes(s.dim, s.batch)
	renv := roofline.Env{
		Plat: env.Plat, Cores: env.Cores, GHz: env.GHz,
		BWGBs: env.BWGBs, ComputeShare: env.ComputeShare,
	}
	matrix := flops * s.app.MatrixFrac
	tm := roofline.Cost(g, roofline.UnitAMX, matrix, bytes, renv)
	tr := roofline.Cost(g, roofline.UnitScalar, flops-matrix, 0, renv)
	return tm.TotalS + tr.TotalS, bytes
}

// Demand implements machine.Workload.
func (s *AUService) Demand(env machine.Env) machine.Demand {
	t, bytes := s.batchCost(env)
	// Service workers busy-wait between queries, like the serving
	// engines (the exclusive-waste effect of Section III-B).
	util := 0.6
	if s.head >= len(s.arrivals) && s.inflight == 0 {
		util = 0.55
	}
	bw := 0.0
	if t > 0 {
		bw = bytes / t / 1e9
	}
	return machine.Demand{Class: power.AMXHeavy, Util: util, BWGBs: bw}
}

// Step implements machine.Workload. Arrivals are admitted at their
// actual timestamps within the step, so a query is never served before
// it exists.
func (s *AUService) Step(env machine.Env, now float64) machine.Usage {
	const dt = machine.DT
	// Materialize this step's arrivals.
	for s.nextAt <= now+dt {
		s.arrivals = append(s.arrivals, s.nextAt)
		s.nextAt += s.stream.Exp(s.ratePerS)
	}

	var u machine.Usage
	cost, bytes := s.batchCost(env)
	if cost <= 0 {
		cost = 1e-9
	}
	busyS := 0.0
	left := dt
	for left > 1e-12 {
		cur := now + (dt - left)
		if s.inflight == 0 {
			// Start a batch over the queries that have arrived by cur.
			const eps = 1e-9
			avail := 0
			for s.head+avail < len(s.arrivals) && s.arrivals[s.head+avail] <= cur+eps {
				avail++
			}
			if avail == 0 {
				if s.head >= len(s.arrivals) {
					break // nothing queued in this step
				}
				// Fast-forward to the next arrival; the epsilon floor
				// guarantees progress against rounding.
				jump := s.arrivals[s.head] - cur
				if jump < eps {
					jump = eps
				}
				if jump >= left {
					break
				}
				left -= jump
				continue
			}
			s.servingN = s.batch
			if s.servingN > avail {
				s.servingN = avail
			}
			s.inflight = 1
		}
		need := s.inflight * cost
		ran := need
		if ran > left {
			ran = left
			s.inflight -= left / cost
		} else {
			s.inflight = 0
		}
		frac := ran / cost
		u.DRAMBytes += bytes * frac
		u.AMXFlops += s.app.Flops(s.dim, s.batch) * s.app.MatrixFrac * frac
		u.Flops += s.app.Flops(s.dim, s.batch) * frac
		busyS += ran
		left -= ran

		if s.inflight == 0 {
			done := now + (dt - left)
			for _, at := range s.arrivals[s.head : s.head+s.servingN] {
				lat := done - at
				s.LatencySum += lat
				s.QueriesDone++
				if lat <= s.sloS {
					s.QueriesMet++
				}
			}
			s.head += s.servingN
			u.Work += float64(s.servingN)
			s.servingN = 0
		}
	}
	// Compact the queue once the consumed prefix dominates, keeping
	// the amortized cost O(1) per query.
	if s.head > 4096 && s.head*2 > len(s.arrivals) {
		s.arrivals = append(s.arrivals[:0], s.arrivals[s.head:]...)
		s.head = 0
	}
	busy := busyS / dt
	u.Util = 0.55 + 0.4*busy
	if cost > 0 {
		rawAMX := env.Plat.AMXPeakGFLOPSPerCore(env.GHz) * 1e9 * float64(env.Cores)
		if rawAMX > 0 {
			u.AMXBusy = u.AMXFlops / rawAMX / dt
		}
	}
	u.Breakdown = topdown.Compose(0.05, 0.01, 0.01, 0.4, 0.3, [4]float64{0.2, 0.2, 0.2, 0.4}, 0.6)
	return u
}
