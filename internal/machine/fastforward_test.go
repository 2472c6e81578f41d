package machine

import (
	"math"
	"math/rand"
	"testing"
)

// TestStepsBeforeTable pins the skip rule's edges: no progress is ever
// refused, and an event exactly j ticks ahead leaves the last tick
// before it to the loop.
func TestStepsBeforeTable(t *testing.T) {
	for _, dt := range []float64{1e-4, 1e-3, 0.01} {
		for _, now := range []float64{0, 0.25, 1.7, 123.456, 3600} {
			for _, stop := range []float64{now - dt, now, now + dt/2, now + dt, now + 1.5*dt, now + 1.99*dt} {
				if got := StepsBefore(now, stop, dt); got != 1 {
					t.Errorf("StepsBefore(%v, %v, %v) = %d, want 1", now, stop, dt, got)
				}
			}
			for j := 2; j <= 64; j++ {
				stop := now + float64(j)*dt
				if got := StepsBefore(now, stop, dt); got != j-1 {
					t.Errorf("StepsBefore(%v, now+%d·dt, %v) = %d, want %d", now, j, dt, got, j-1)
				}
			}
		}
	}
}

// TestStepsBeforeMarginProperty perturbs now and stop by a few ulps
// around whole and half tick offsets: a batch of k > 1 steps must end
// at least half a tick short of stop, so clock drift can never carry a
// skipped tick across the event, and it must never end a whole tick
// earlier than that.
func TestStepsBeforeMarginProperty(t *testing.T) {
	nudge := func(r *rand.Rand, x float64) float64 {
		dir := math.Inf(1)
		if r.Intn(2) == 0 {
			dir = math.Inf(-1)
		}
		for i := r.Intn(5); i > 0; i-- {
			x = math.Nextafter(x, dir)
		}
		return x
	}
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 200000; i++ {
		dt := []float64{1e-4, 1e-3, 0.01}[r.Intn(3)]
		now := nudge(r, float64(r.Intn(4000000))*dt)
		ticks := float64(r.Intn(2000)) + 0.5*float64(r.Intn(2))
		stop := nudge(r, now+ticks*dt)
		k := StepsBefore(now, stop, dt)
		tol := 1e-6 * dt
		end := now + float64(k)*dt
		if k > 1 && end > stop-dt/2+tol {
			t.Fatalf("StepsBefore(%v, %v, %v) = %d: batch ends at %v, past stop-dt/2 = %v",
				now, stop, dt, k, end, stop-dt/2)
		}
		if end+dt <= stop-dt/2-tol {
			t.Fatalf("StepsBefore(%v, %v, %v) = %d: one more step would still end by stop-dt/2",
				now, stop, dt, k)
		}
	}
}
