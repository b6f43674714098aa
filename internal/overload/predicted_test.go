package overload

import (
	"testing"
	"time"
)

// Predicted reports the model-predicted overload latch.
func (d *Detector) Predicted() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.predicted
}

// PredictedEpisodes returns how many times the predictive latch has fired.
func (d *Detector) PredictedEpisodes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.predictedEpisodes
}

// TestDetectorPredictedLatch: the model-driven input latches and releases
// independently of the reactive CoDel latch, ORs into Overloaded, and is
// immune to the idle self-clear.
func TestDetectorPredictedLatch(t *testing.T) {
	clk := newFakeClock()
	d := NewDetector(DetectorConfig{Target: 100 * time.Millisecond, Interval: time.Second}, clk.now)

	if d.Overloaded(0) {
		t.Fatal("fresh detector must not be overloaded")
	}
	if !d.SetPredicted(true) {
		t.Fatal("first SetPredicted(true) must report a change")
	}
	if d.SetPredicted(true) {
		t.Fatal("repeated SetPredicted(true) must be a no-op")
	}
	if !d.Predicted() || !d.Overloaded(0) {
		t.Fatal("predictive latch must make the detector overloaded")
	}
	if got := d.PredictedEpisodes(); got != 1 {
		t.Fatalf("predicted episodes = %d, want 1", got)
	}
	if got := d.Episodes(); got != 0 {
		t.Fatalf("reactive episodes = %d, want 0 (predictive latch is separate)", got)
	}

	// The idle self-clear (empty queue, no samples for an interval) must
	// not release the predictive latch — only its owner clears it.
	clk.advance(10 * time.Second)
	if !d.Overloaded(0) {
		t.Fatal("idle self-clear must not touch the predictive latch")
	}

	if !d.SetPredicted(false) {
		t.Fatal("SetPredicted(false) must report a change")
	}
	if d.Predicted() || d.Overloaded(0) {
		t.Fatal("cleared predictive latch must release the overload")
	}
	d.SetPredicted(true)
	d.SetPredicted(false)
	if got := d.PredictedEpisodes(); got != 2 {
		t.Fatalf("predicted episodes = %d, want 2", got)
	}
}

// TestDetectorPredictedWithReactive: both latches engaged — clearing one
// leaves the other holding the overload.
func TestDetectorPredictedWithReactive(t *testing.T) {
	clk := newFakeClock()
	d := NewDetector(DetectorConfig{Target: 100 * time.Millisecond, Interval: time.Second}, clk.now)

	// Latch the reactive detector: sustained above-target delay.
	d.Observe(time.Second)
	clk.advance(2 * time.Second)
	if over, _ := d.Observe(time.Second); !over {
		t.Fatal("sustained delay must latch the reactive detector")
	}
	d.SetPredicted(true)

	// Reactive clears on a good sample; the predictive latch holds.
	d.Observe(time.Millisecond)
	if !d.Overloaded(1) {
		t.Fatal("predictive latch must hold after the reactive latch clears")
	}
	d.SetPredicted(false)
	if d.Overloaded(1) {
		t.Fatal("both latches clear → not overloaded")
	}
}

// TestDetectorPredictedWithoutDelay: the predictive latch alone makes a
// detector overloaded — one whose queue delay never went above target —
// and below-target samples, which clear the reactive latch, leave it set.
func TestDetectorPredictedWithoutDelay(t *testing.T) {
	d := NewDetector(DetectorConfig{}, nil)
	d.Observe(time.Millisecond)
	if d.Overloaded(100) {
		t.Fatal("a detector without above-target delay or predictive input must report healthy")
	}
	d.SetPredicted(true)
	if over, _ := d.Observe(time.Millisecond); over {
		t.Fatal("a below-target sample latched the reactive detector")
	}
	if !d.Overloaded(100) {
		t.Fatal("predictive latch must count without any above-target delay")
	}
	d.SetPredicted(false)
	if d.Overloaded(100) {
		t.Fatal("cleared predictive latch must release the overload")
	}
}
