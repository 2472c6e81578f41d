package cluster

import (
	"fmt"
	"math"
)

// BalancePolicy selects the machine for each arriving request.
type BalancePolicy int

const (
	// RoundRobin cycles through the routable machines regardless of
	// their state.
	RoundRobin BalancePolicy = iota
	// LeastQueued picks the machine with the fewest outstanding
	// requests — load-aware but AUV-oblivious (it cannot see that
	// machines differ in AU capacity or frequency headroom).
	LeastQueued
	// AUVAware weighs each machine's profiled serving capacity against
	// its live backlog: requests go where the *AU-adjusted* slack is
	// largest (the Section VIII proposal).
	AUVAware
)

// String returns the policy name.
func (p BalancePolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastQueued:
		return "least-queued"
	case AUVAware:
		return "auv-aware"
	}
	return "unknown"
}

// ParseBalancePolicy maps a name produced by String back to the
// policy — the form command-line flags carry.
func ParseBalancePolicy(s string) (BalancePolicy, error) {
	for _, p := range []BalancePolicy{RoundRobin, LeastQueued, AUVAware} {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("cluster: unknown balance policy %q (round-robin | least-queued | auv-aware)", s)
}

// balancer routes one epoch's arrivals. Queue state is sampled once at
// the tick barrier (the machines are mid-flight on other goroutines
// during an epoch), and in-epoch assignment counts are layered on top
// so a burst inside one barrier interval still spreads out.
type balancer struct {
	policy   BalancePolicy
	rr       map[int]int // per-class round-robin cursor
	credits  []float64   // weighted-deficit state (AUVAware)
	assigned []int       // requests routed since the last sample
	qlen     []int       // prefill queue depth at the barrier
	batch    []int       // decode batch + backlog at the barrier
}

func newBalancer(p BalancePolicy, n int) *balancer {
	return &balancer{policy: p, rr: make(map[int]int),
		credits: make([]float64, n), assigned: make([]int, n),
		qlen: make([]int, n), batch: make([]int, n)}
}

// sample refreshes the barrier snapshot of per-node queue state.
func (b *balancer) sample(nodes []*node) {
	for i, n := range nodes {
		b.assigned[i] = 0
		b.qlen[i] = n.env.Engine.QueueLen()
		b.batch[i] = n.env.Engine.DecodeBatch() + n.env.Engine.BacklogLen()
	}
}

// pick selects among the routable node indices (never empty) for one
// class-k arrival. Ties break on the lowest index, keeping routing
// deterministic.
func (b *balancer) pick(class int, nodes []*node, routable []int) int {
	var best int
	switch b.policy {
	case LeastQueued:
		best = routable[0]
		bestQ := math.MaxInt
		for _, i := range routable {
			if q := b.qlen[i] + b.assigned[i]; q < bestQ {
				best, bestQ = i, q
			}
		}
	case AUVAware:
		// Weighted-deficit routing: every routable node accrues credit
		// proportional to its profiled AU capacity, discounted by its
		// live backlog in request-equivalents; the winner pays the
		// fleet total. Long-run shares track capacity; transient
		// congestion steers work away immediately.
		var fleet float64
		for _, i := range routable {
			fleet += nodes[i].capacity
			b.credits[i] += nodes[i].capacity
		}
		best = routable[0]
		bestScore := math.Inf(-1)
		for _, i := range routable {
			backlog := float64(b.qlen[i]+b.assigned[i]) + 0.25*float64(b.batch[i])
			if score := b.credits[i] - backlog*nodes[i].capacity; score > bestScore {
				best, bestScore = i, score
			}
		}
		b.credits[best] -= fleet
	default:
		best = routable[b.rr[class]%len(routable)]
		b.rr[class]++
	}
	b.assigned[best]++
	return best
}
