package overload

import (
	"fmt"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic limiter and
// detector tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestLimiterBurstAndRefill: a fresh client spends its whole burst, is then
// refused with a positive retry hint, and regains exactly the refilled
// number of tokens after waiting.
func TestLimiterBurstAndRefill(t *testing.T) {
	c := newFakeClock()
	l := NewLimiter(10, 5) // 10 tokens/s, burst 5

	for i := 0; i < 5; i++ {
		ok, _ := l.Allow("a", c.now())
		if !ok {
			t.Fatalf("burst request %d refused, want 5 allowed", i)
		}
	}
	ok, retry := l.Allow("a", c.now())
	if ok {
		t.Fatal("6th immediate request allowed, burst is 5")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retry hint %v, want (0, 100ms] for rate 10/s", retry)
	}

	// 250ms at 10/s refills 2.5 tokens: exactly 2 more requests pass.
	c.advance(250 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a", c.now()); !ok {
			t.Fatalf("post-refill request %d refused, want 2 allowed", i)
		}
	}
	if ok, _ := l.Allow("a", c.now()); ok {
		t.Fatal("3rd post-refill request allowed, only 2.5 tokens refilled")
	}

	// Other clients have their own buckets.
	if ok, _ := l.Allow("b", c.now()); !ok {
		t.Fatal("fresh client refused while another is throttled")
	}

	// A full idle period restores the full burst, never more.
	c.advance(time.Hour)
	for i := 0; i < 5; i++ {
		if ok, _ := l.Allow("a", c.now()); !ok {
			t.Fatalf("request %d after long idle refused, want full burst back", i)
		}
	}
	if ok, _ := l.Allow("a", c.now()); ok {
		t.Fatal("burst exceeded after long idle: bucket must cap at burst")
	}
}

// TestLimiterDisabled: rate <= 0 always allows.
func TestLimiterDisabled(t *testing.T) {
	c := newFakeClock()
	l := NewLimiter(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := l.Allow("x", c.now()); !ok {
			t.Fatal("disabled limiter refused a request")
		}
	}
	var nilL *Limiter
	if ok, _ := nilL.Allow("x", c.now()); !ok {
		t.Fatal("nil limiter refused a request")
	}
}

// TestLimiterSweep: the client map stays bounded because idle (fully
// refilled) buckets are swept once the map grows large.
func TestLimiterSweep(t *testing.T) {
	c := newFakeClock()
	l := NewLimiter(100, 1)
	for i := 0; i < maxIdleBuckets; i++ {
		l.Allow(fmt.Sprintf("client-%d", i), c.now())
	}
	c.advance(time.Minute) // every bucket refills to capacity
	l.Allow("one-more", c.now())
	if n := l.Clients(); n > 2 {
		t.Fatalf("%d buckets retained after sweep, want <= 2", n)
	}
}

// TestLimiterChurnBounded: an attacker rotating X-Client-ID faster than the
// refill window used to grow the bucket map without bound, because the sweep
// only dropped fully-refilled buckets and a fresh bucket is never refilled.
// The map must now be a hard bound regardless of key churn.
func TestLimiterChurnBounded(t *testing.T) {
	c := newFakeClock()
	l := NewLimiter(1, 100) // slow refill: no bucket ever refills mid-test
	const churn = 10 * maxIdleBuckets
	for i := 0; i < churn; i++ {
		l.Allow(fmt.Sprintf("spoof-%d", i), c.now())
		c.advance(time.Millisecond) // fast rotation, far below refill time
	}
	if n := l.Clients(); n > maxIdleBuckets {
		t.Fatalf("%d buckets retained under %d-key churn, want <= %d",
			n, churn, maxIdleBuckets)
	}
	// Eviction must keep the newest buckets: a client throttled moments ago
	// stays throttled (its spent tokens are not forgotten by the sweep).
	hot := "hot-client"
	for i := 0; i < 100; i++ {
		l.Allow(hot, c.now())
	}
	if ok, _ := l.Allow(hot, c.now()); ok {
		t.Fatal("hot client allowed past its burst")
	}
	for i := 0; i < maxIdleBuckets/4; i++ {
		l.Allow(fmt.Sprintf("late-spoof-%d", i), c.now())
	}
	if ok, _ := l.Allow(hot, c.now()); ok {
		t.Fatal("hot client's bucket was evicted by churn below the sweep threshold")
	}
}

// TestDetectorLatchesAndClears walks the full state machine: below-target
// samples keep it healthy, sustained above-target delay latches overloaded
// after one interval, and a single good sample clears it.
func TestDetectorLatchesAndClears(t *testing.T) {
	c := newFakeClock()
	d := NewDetector(DetectorConfig{Target: 10 * time.Millisecond, Interval: 100 * time.Millisecond}, c.now)

	// Spikes shorter than the interval never latch.
	for i := 0; i < 3; i++ {
		if over, _ := d.Observe(50 * time.Millisecond); over {
			t.Fatal("latched before a full interval above target")
		}
		c.advance(30 * time.Millisecond)
	}
	if over, changed := d.Observe(time.Millisecond); over || changed {
		t.Fatal("good sample must keep state healthy, not flip anything")
	}

	// Sustained bad delay: latches once a full interval has passed.
	for i := 0; ; i++ {
		over, changed := d.Observe(40 * time.Millisecond)
		if over {
			if !changed {
				t.Fatal("latch must report changed=true")
			}
			break
		}
		if i > 20 {
			t.Fatal("never latched under sustained above-target delay")
		}
		c.advance(25 * time.Millisecond)
	}
	if !d.Overloaded(5) {
		t.Fatal("Overloaded() false right after latching with a backlog")
	}
	if d.Episodes() != 1 {
		t.Fatalf("episodes = %d, want 1", d.Episodes())
	}

	// One good sample clears.
	if over, changed := d.Observe(time.Millisecond); over || !changed {
		t.Fatalf("good sample: overloaded=%v changed=%v, want false/true", over, changed)
	}
	if d.Overloaded(0) {
		t.Fatal("still overloaded after a good sample")
	}
}

// TestDetectorIdleSelfClear: when the burst ends in silence (no samples at
// all), a drained queue plus one quiet interval clears the latch — readyz
// must not stay red forever on an idle server.
func TestDetectorIdleSelfClear(t *testing.T) {
	c := newFakeClock()
	d := NewDetector(DetectorConfig{Target: 10 * time.Millisecond, Interval: 100 * time.Millisecond}, c.now)
	d.Observe(50 * time.Millisecond)
	c.advance(150 * time.Millisecond)
	if over, _ := d.Observe(50 * time.Millisecond); !over {
		t.Fatal("failed to latch")
	}

	// Backlog still present: stays latched no matter how long.
	c.advance(time.Minute)
	if !d.Overloaded(3) {
		t.Fatal("cleared with a non-empty queue")
	}
	// Drained queue + a quiet interval: self-clears.
	if d.Overloaded(0) != false {
		t.Fatal("did not self-clear with empty queue after a quiet interval")
	}
	if d.Overloaded(0) {
		t.Fatal("flag re-latched without any observation")
	}
}

// TestDetectorForce covers the forced latch and the Retry-After hint.
func TestDetectorForce(t *testing.T) {
	c := newFakeClock()
	d := NewDetector(DetectorConfig{Target: 10 * time.Millisecond, Interval: 100 * time.Millisecond}, c.now)
	d.ForceForTesting(true)
	if !d.Overloaded(0) {
		t.Fatal("forced latch self-cleared immediately")
	}
	if d.Episodes() != 1 {
		t.Fatalf("forced latch episodes = %d, want 1", d.Episodes())
	}
	d.ForceForTesting(false)
	if d.Overloaded(10) {
		t.Fatal("ForceForTesting(false) did not clear")
	}
	if got := d.RetryAfter(); got != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s (interval rounded up)", got)
	}
}
