package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Latency's buckets are log-linear: below 16 ns one bucket per nanosecond,
// above it 16 equal buckets per power of two, so a bucket is at most 1/16
// of its lower edge wide. 512 buckets reach 2^35 ns (≈ 34 s); longer
// samples share the last bucket, and Max stays exact.
const (
	latencySubBits = 4
	latencySub     = 1 << latencySubBits
	latencyBuckets = 512
)

// Latency is a fixed-bucket histogram of durations. Every counter is
// atomic, so any goroutine may Observe and any goroutine may read a Summary
// while others write. The zero value is ready for use.
type Latency struct {
	counts [latencyBuckets]atomic.Uint64
	n      atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Summary is one reading of a Latency: the exact count, mean and max, and
// the nearest-rank p50, p90 and p99 to within one bucket. All zero when
// nothing was observed.
type Summary struct {
	N                        int64
	Mean, P50, P90, P99, Max time.Duration
}

// latencyBucket is the bucket that holds d >= 0.
func latencyBucket(d time.Duration) int {
	v := uint64(d)
	if v < latencySub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // v is in [2^e, 2^(e+1))
	b := (e-latencySubBits+1)<<latencySubBits + int(v>>(e-latencySubBits)&(latencySub-1))
	return min(b, latencyBuckets-1)
}

// latencyMid is the middle of bucket b, the value a quantile falling in it
// reads as.
func latencyMid(b int) time.Duration {
	if b < latencySub {
		return time.Duration(b)
	}
	shift := b>>latencySubBits - 1
	lo := uint64(latencySub+b&(latencySub-1)) << shift
	return time.Duration(lo + uint64(1)<<shift/2)
}

// Observe adds one sample; a negative one counts as zero.
func (l *Latency) Observe(d time.Duration) {
	d = max(d, 0)
	// The bucket before the count: a reader that sees the count sees the
	// bucket, so its ranks never run past the buckets' total.
	l.counts[latencyBucket(d)].Add(1)
	l.sum.Add(int64(d))
	for m := l.max.Load(); int64(d) > m; m = l.max.Load() {
		if l.max.CompareAndSwap(m, int64(d)) {
			break
		}
	}
	l.n.Add(1)
}

// Summary reads the histogram in one pass over the buckets, without
// allocating.
func (l *Latency) Summary() Summary {
	n := l.n.Load()
	s := Summary{N: int64(n), Max: time.Duration(l.max.Load())}
	if n == 0 {
		return s
	}
	s.Mean = time.Duration(l.sum.Load() / int64(n))
	// Nearest rank: the ⌈q·n⌉-th smallest sample.
	ranks := [3]uint64{(50*n + 99) / 100, (90*n + 99) / 100, (99*n + 99) / 100}
	out := [3]*time.Duration{&s.P50, &s.P90, &s.P99}
	var cum uint64
	i := 0
	for b := 0; b < latencyBuckets && i < len(ranks); b++ {
		cum += l.counts[b].Load()
		for ; i < len(ranks) && cum >= ranks[i]; i++ {
			*out[i] = min(latencyMid(b), s.Max)
		}
	}
	return s
}
