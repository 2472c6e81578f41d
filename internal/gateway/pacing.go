package gateway

import (
	"context"
	"errors"
	"time"
)

// errStopped resolves handlers blocked on a gateway that is shutting
// down.
var errStopped = errors.New("gateway: stopped")

// pacer releases one stream's events at their warped wall instants
// (the drip-feed of the time-warp contract), reusing one timer for
// every wait of the stream.
type pacer struct {
	g     *Gateway
	timer *time.Timer
}

// pace blocks until the wall-clock instant the simulated time simT
// maps to (startWall + simT/warp). Returns immediately when the
// instant is already past, recording how late the release is in
// aum_gateway_paced_release_lag_seconds (the steady-state lag is
// bounded by one barrier interval of wall time).
func (p *pacer) pace(ctx context.Context, simT float64) error {
	target := p.g.wallAt(simT)
	for {
		d := time.Until(target)
		if d <= 0 {
			p.g.gLag.Set(-d.Seconds())
			return nil
		}
		resetTimer(&p.timer, d)
		select {
		case <-ctx.Done():
			stopTimer(p.timer)
			return ctx.Err()
		case <-p.g.stop:
			stopTimer(p.timer)
			return errStopped
		case <-p.timer.C:
		}
	}
}

// resetTimer arms *t to fire after d, creating it on first use. Every
// caller either received from the timer's channel or stopped it
// through stopTimer since it last fired, so no stale tick is pending.
func resetTimer(t **time.Timer, d time.Duration) {
	if *t == nil {
		*t = time.NewTimer(d)
		return
	}
	(*t).Reset(d)
}

// stopTimer stops t and drops a tick it already sent, so the next
// resetTimer starts clean.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}
