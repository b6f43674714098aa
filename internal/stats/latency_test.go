package stats

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"drqos/internal/rng"
)

func TestLatencyEmptyAndSmall(t *testing.T) {
	var l Latency
	if got := l.Summary(); got != (Summary{}) {
		t.Errorf("empty Summary() = %+v, want all zero", got)
	}
	// Below 16 ns a bucket is one nanosecond wide, so small samples read
	// back exactly.
	for _, d := range []time.Duration{5, 1, 3} {
		l.Observe(d)
	}
	want := Summary{N: 3, Mean: 3, P50: 3, P90: 5, P99: 5, Max: 5}
	if got := l.Summary(); got != want {
		t.Errorf("Summary() of {5,1,3} ns = %+v, want %+v", got, want)
	}
}

// TestLatencyBuckets: every bucket's middle lands back in that bucket, the
// buckets are contiguous and ordered, and each is at most 1/16 of its
// value wide.
func TestLatencyBuckets(t *testing.T) {
	for b := 0; b < latencyBuckets; b++ {
		mid := latencyMid(b)
		if got := latencyBucket(mid); got != b {
			t.Fatalf("bucket of latencyMid(%d) = %v is %d", b, mid, got)
		}
		if b > 0 && latencyBucket(mid-1) < b-1 {
			t.Fatalf("bucket %d: %v falls below bucket %d", b, mid-1, b-1)
		}
		if b > 0 && latencyMid(b) <= latencyMid(b-1) {
			t.Fatalf("bucket %d's middle %v not above bucket %d's %v", b, latencyMid(b), b-1, latencyMid(b-1))
		}
	}
	for _, d := range []time.Duration{16, 1000, time.Millisecond, 10 * time.Second} {
		b := latencyBucket(d)
		if w := latencyMid(b+1) - latencyMid(b); w > d/latencySub+1 {
			t.Errorf("bucket of %v is %v wide", d, w)
		}
	}
	if b := latencyBucket(time.Hour); b != latencyBuckets-1 {
		t.Errorf("an hour lands in bucket %d, want the last (%d)", b, latencyBuckets-1)
	}
	var l Latency
	l.Observe(-time.Second)
	if s := l.Summary(); s != (Summary{N: 1}) {
		t.Errorf("a negative sample reads %+v, want one zero sample", s)
	}
}

// TestLatencyQuantileAccuracy holds p50, p90 and p99 within one bucket of
// the exact nearest-rank quantile, and count, mean and max exact, on
// seeded streams spanning ten decades, a constant and two far-apart modes.
func TestLatencyQuantileAccuracy(t *testing.T) {
	const n = 20000
	src := rng.New(13)
	streams := map[string]func() time.Duration{
		"log-uniform": func() time.Duration {
			return time.Duration(math.Exp(src.Float64() * math.Log(1e10))) // 1 ns .. 10 s
		},
		"constant": func() time.Duration { return 7 * time.Millisecond },
		"bimodal": func() time.Duration {
			if src.Bernoulli(0.95) {
				return 300*time.Microsecond + time.Duration(src.Exp(1/20e3))
			}
			return 40*time.Millisecond + time.Duration(src.Exp(1/2e6))
		},
	}
	for name, draw := range streams {
		t.Run(name, func(t *testing.T) {
			var l Latency
			xs := make([]time.Duration, n)
			var sum time.Duration
			for i := range xs {
				xs[i] = draw()
				sum += xs[i]
				l.Observe(xs[i])
			}
			slices.Sort(xs)
			got := l.Summary()
			if got.N != n || got.Max != xs[n-1] || got.Mean != sum/n {
				t.Errorf("N/mean/max = %d/%v/%v, want %d/%v/%v", got.N, got.Mean, got.Max, n, sum/n, xs[n-1])
			}
			for _, q := range []struct {
				p   float64
				got time.Duration
			}{{0.50, got.P50}, {0.90, got.P90}, {0.99, got.P99}} {
				exact := xs[int(math.Ceil(q.p*n))-1]
				if d := latencyBucket(q.got) - latencyBucket(exact); d < -1 || d > 1 {
					t.Errorf("p%v = %v, exact %v: %d buckets apart", 100*q.p, q.got, exact, d)
				}
			}
		})
	}
}

// TestP2QuantileAccuracy holds p50, p90 and p99 within 5% of the exact
// nearest-rank quantile on seeded uniform and exponential streams of
// durations in seconds.
func TestP2QuantileAccuracy(t *testing.T) {
	const n = 20000
	src := rng.New(13)
	draws := map[string]func() float64{
		"uniform":     src.Float64,
		"exponential": func() float64 { return src.Exp(2.0) },
	}
	for name, draw := range draws {
		var l Latency
		xs := make([]time.Duration, n)
		for i := range xs {
			xs[i] = time.Duration(draw() * float64(time.Second))
			l.Observe(xs[i])
		}
		slices.Sort(xs)
		s := l.Summary()
		for _, q := range []struct {
			p   float64
			got time.Duration
		}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
			want := xs[int(math.Ceil(q.p*n))-1]
			if rel := math.Abs(float64(q.got-want)) / float64(want); rel > 0.05 {
				t.Errorf("%s p%v: histogram %v vs exact %v (rel err %.3f)", name, 100*q.p, q.got, want, rel)
			}
		}
	}
}

// TestDigestMonotoneAndMoments: on an Exp(1) stream in milliseconds the
// quantiles are ordered and bounded by max, the count is exact, and p50
// and p99 sit near ln 2 and ln 100.
func TestDigestMonotoneAndMoments(t *testing.T) {
	var l Latency
	src := rng.New(99)
	for i := 0; i < 5000; i++ {
		l.Observe(time.Duration(src.Exp(1.0) * float64(time.Millisecond)))
	}
	s := l.Summary()
	if !(s.P50 <= s.P90 && s.P90 <= s.P99) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", s.P50, s.P90, s.P99)
	}
	if s.N != 5000 {
		t.Errorf("N = %d, want 5000", s.N)
	}
	if s.Mean <= 0 || s.Max < s.P99 {
		t.Errorf("moments inconsistent: mean=%v max=%v p99=%v", s.Mean, s.Max, s.P99)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// Exp(1) has median ln 2 ≈ 0.693 and p99 ≈ 4.605.
	if p50 := ms(s.P50); math.Abs(p50-math.Ln2) > 0.08 {
		t.Errorf("p50 = %v ms, want ≈ %v", p50, math.Ln2)
	}
	if p99 := ms(s.P99); math.Abs(p99-4.605) > 0.7 {
		t.Errorf("p99 = %v ms, want ≈ 4.605", p99)
	}
}

// TestLatencyConcurrent: writers and a reader at once (run it under
// -race). Every reading is ordered p50 ≤ p90 ≤ p99 ≤ max with a count that
// never goes back, and the final count and max are exact.
func TestLatencyConcurrent(t *testing.T) {
	const writers, each = 4, 5000
	var l Latency
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			src := rng.New(uint64(w) + 1)
			for i := 0; i < each; i++ {
				l.Observe(time.Duration(src.Exp(1e-6)))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var last int64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		s := l.Summary()
		if !(s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max) || s.N < last {
			t.Fatalf("reading out of order: %+v after N=%d", s, last)
		}
		last = s.N
	}
	l.Observe(time.Hour)
	if s := l.Summary(); s.N != writers*each+1 || s.Max != time.Hour {
		t.Errorf("final N/max = %d/%v, want %d/%v", s.N, s.Max, writers*each+1, time.Hour)
	}
}

func BenchmarkLatencyObserve(b *testing.B) {
	var l Latency
	src := rng.New(1)
	xs := make([]time.Duration, 4096)
	for i := range xs {
		xs[i] = time.Duration(src.Exp(1e-6))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Observe(xs[i%len(xs)])
	}
}

var summarySink Summary

func BenchmarkLatencySummary(b *testing.B) {
	var l Latency
	src := rng.New(1)
	for i := 0; i < 10000; i++ {
		l.Observe(time.Duration(src.Exp(1e-6)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		summarySink = l.Summary()
	}
}
