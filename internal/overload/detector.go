package overload

import (
	"sync"
	"time"
)

// DetectorConfig tunes the sustained-delay detector, CoDel-style
// (Nichols & Jacobson, "Controlling Queue Delay", ACM Queue 2012): a queue
// is overloaded not when delay spikes — bursts are fine — but when delay
// stays above a target for a full interval without a single good sample.
type DetectorConfig struct {
	// Target is the acceptable standing queueing delay. Delays below it are
	// "good" samples and clear any pending episode. Zero or negative
	// selects the default (100ms).
	Target time.Duration
	// Interval is how long delay must stay above Target, with no good
	// sample, before the overloaded state latches (default 1s).
	Interval time.Duration
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Target <= 0 {
		c.Target = 100 * time.Millisecond
	}
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	return c
}

// Detector tracks a stream of queueing-delay observations and latches an
// "overloaded" flag once delay has exceeded the target for a sustained
// interval. A single below-target observation clears the flag — queue
// drained, service restored. It is safe for concurrent use: one goroutine
// observes (the actor loop), many read.
type Detector struct {
	cfg DetectorConfig
	now func() time.Time // injectable clock for tests

	mu          sync.Mutex
	firstAbove  time.Time // zero when the last sample was below target
	lastObserve time.Time
	overloaded  bool
	since       time.Time // when the current episode latched
	episodes    int64     // times the flag flipped on

	// predicted is the model-driven input: the forecast control plane
	// latches it when the solved steady-state distribution predicts
	// saturation, BEFORE queue delay builds up. It is a separate latch from
	// the reactive one — the idle self-clear in Overloaded never touches
	// it; only SetPredicted(false) (the next solve predicting headroom, or
	// the forecast going stale) releases it.
	predicted         bool
	predictedEpisodes int64
}

// NewDetector builds a detector; nowFn may be nil (defaults to time.Now).
func NewDetector(cfg DetectorConfig, nowFn func() time.Time) *Detector {
	if nowFn == nil {
		nowFn = time.Now
	}
	return &Detector{cfg: cfg.withDefaults(), now: nowFn}
}

// Observe feeds one queueing-delay sample and returns the overloaded state
// plus whether this sample flipped it.
func (d *Detector) Observe(delay time.Duration) (overloaded, changed bool) {
	now := d.now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastObserve = now
	if delay < d.cfg.Target {
		d.firstAbove = time.Time{}
		if d.overloaded {
			d.overloaded = false
			return false, true
		}
		return false, false
	}
	if d.firstAbove.IsZero() {
		d.firstAbove = now
	}
	if !d.overloaded && now.Sub(d.firstAbove) >= d.cfg.Interval {
		d.overloaded = true
		d.since = now
		d.episodes++
		return true, true
	}
	return d.overloaded, false
}

// Overloaded reports the latched state. queueDepth is the caller's current
// backlog: when the flag is latched but the queue has fully drained and no
// sample has arrived for a whole interval, the overload is over — there is
// simply no traffic left to observe it with — so the flag self-clears.
// Without this, a burst that ends in silence would leave the server
// refusing work forever.
func (d *Detector) Overloaded(queueDepth int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.overloaded && queueDepth == 0 && d.now().Sub(d.lastObserve) >= d.cfg.Interval {
		d.overloaded = false
		d.firstAbove = time.Time{}
	}
	return d.overloaded || d.predicted
}

// SetPredicted latches (or clears) the model-predicted overload input and
// reports whether the call changed it. Unlike the reactive latch it has no
// idle self-clear: the forecaster that set it owns clearing it — on the
// next solve predicting headroom, or when its forecast goes stale.
func (d *Detector) SetPredicted(on bool) (changed bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if on == d.predicted {
		return false
	}
	d.predicted = on
	if on {
		d.predictedEpisodes++
	}
	return true
}

// Episodes returns how many times the overloaded flag has latched.
func (d *Detector) Episodes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.episodes
}

// ForceForTesting sets the latched state directly, for readiness-probe and
// shedding tests. Forcing on counts as an episode.
func (d *Detector) ForceForTesting(overloaded bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if overloaded && !d.overloaded {
		d.episodes++
		d.since = d.now()
	}
	d.overloaded = overloaded
	d.firstAbove = time.Time{}
	if overloaded {
		// Pin the observation clock so the idle self-clear in Overloaded
		// does not immediately undo a forced latch.
		d.lastObserve = d.now()
	}
}

// RetryAfter is the hint handed to shed clients: one interval, rounded up
// to a whole second (the Retry-After header carries integer seconds).
func (d *Detector) RetryAfter() time.Duration {
	return (d.cfg.Interval + time.Second - 1) / time.Second * time.Second
}
