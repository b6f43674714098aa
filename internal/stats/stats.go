// Package stats provides the statistical accumulators used by the simulator,
// the experiment harness and the daemon: running moments (Welford),
// time-weighted averages for piecewise-constant signals such as reserved
// bandwidth, confidence intervals, batch means, the empirical transition
// counters from which the paper's A, B and T matrices are estimated, and
// Latency, the one fixed-bucket histogram every latency report reads.
package stats

import (
	"fmt"
	"math"
)

// Running accumulates a sample mean and variance using Welford's online
// algorithm. The zero value is ready for use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Observe adds one sample.
func (r *Running) Observe(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of samples observed.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean, or 0 with no samples.
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance, or 0 with <2 samples.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Min returns the smallest observed sample, or 0 with no samples.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest observed sample, or 0 with no samples.
func (r *Running) Max() float64 { return r.max }

// CI95 returns the half-width of the normal-approximation 95% confidence
// interval of the mean. With fewer than 2 samples it returns 0.
func (r *Running) CI95() float64 {
	if r.n < 2 {
		return 0
	}
	return 1.96 * r.StdDev() / math.Sqrt(float64(r.n))
}

// Merge folds another accumulator into this one (parallel Welford merge).
func (r *Running) Merge(o *Running) {
	if o.n == 0 {
		return
	}
	if r.n == 0 {
		*r = *o
		return
	}
	n := r.n + o.n
	d := o.mean - r.mean
	r.m2 += o.m2 + d*d*float64(r.n)*float64(o.n)/float64(n)
	r.mean += d * float64(o.n) / float64(n)
	if o.min < r.min {
		r.min = o.min
	}
	if o.max > r.max {
		r.max = o.max
	}
	r.n = n
}

// TimeWeighted integrates a piecewise-constant signal over simulated time.
// Observe(t, v) declares that the signal takes value v from time t onward;
// calls must have non-decreasing t. The zero value is ready for use.
type TimeWeighted struct {
	started  bool
	lastT    float64
	lastV    float64
	area     float64
	duration float64
}

// Observe records a signal change to value v at time t.
func (w *TimeWeighted) Observe(t, v float64) {
	if w.started {
		if t < w.lastT {
			panic(fmt.Sprintf("stats: TimeWeighted time went backwards: %v < %v", t, w.lastT))
		}
		dt := t - w.lastT
		w.area += w.lastV * dt
		w.duration += dt
	}
	w.started = true
	w.lastT, w.lastV = t, v
}

// CloseAt finalizes the integral at time t without changing the value.
func (w *TimeWeighted) CloseAt(t float64) { w.Observe(t, w.lastV) }

// Mean returns the time-weighted average, or 0 with zero elapsed time.
func (w *TimeWeighted) Mean() float64 {
	if w.duration == 0 {
		return 0
	}
	return w.area / w.duration
}

// Duration returns the total elapsed time integrated so far.
func (w *TimeWeighted) Duration() float64 { return w.duration }

// Mean of a float64 slice; 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
