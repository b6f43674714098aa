package stats

import "fmt"

// TransitionCounter accumulates observed state jumps of channels between the
// N bandwidth states and converts them into the empirical conditional jump
// matrices A (downward, on arrival/failure), B (upward, indirectly chained
// on arrival) and T (upward, on termination) that the paper's Markov model
// consumes (§3.3: "the probabilities of transitioning from one state to
// another ... are obtained through simulations").
//
// Self-loops (no change) are counted separately from jumps, so that callers
// can recover both the jump distribution and the per-event change
// probability.
type TransitionCounter struct {
	n      int
	counts [][]int // counts[i][j]: observed jumps i -> j, i != j
	stays  []int   // event observed in state i, no state change
}

// NewTransitionCounter returns a counter over n states. It panics if n <= 0.
func NewTransitionCounter(n int) *TransitionCounter {
	if n <= 0 {
		panic(fmt.Sprintf("stats: NewTransitionCounter(%d)", n))
	}
	c := &TransitionCounter{
		n:      n,
		counts: make([][]int, n),
		stays:  make([]int, n),
	}
	for i := range c.counts {
		c.counts[i] = make([]int, n)
	}
	return c
}

// N returns the number of states.
func (c *TransitionCounter) N() int { return c.n }

// Record notes that a channel in state from ended the event in state to.
// Out-of-range states panic: they indicate a simulator bug, not bad data.
func (c *TransitionCounter) Record(from, to int) {
	if from < 0 || from >= c.n || to < 0 || to >= c.n {
		panic(fmt.Sprintf("stats: transition %d->%d outside [0,%d)", from, to, c.n))
	}
	if from == to {
		c.stays[from]++
		return
	}
	c.counts[from][to]++
}

// Count returns the raw jump count from i to j.
func (c *TransitionCounter) Count(i, j int) int {
	if i == j {
		return c.stays[i]
	}
	return c.counts[i][j]
}

// Events returns the total number of recorded events originating in state i
// (including no-change events).
func (c *TransitionCounter) Events(i int) int {
	t := c.stays[i]
	for _, v := range c.counts[i] {
		t += v
	}
	return t
}

// Merge folds another counter (with the same state count) into this one.
func (c *TransitionCounter) Merge(o *TransitionCounter) error {
	if o.n != c.n {
		return fmt.Errorf("stats: merging counters of size %d and %d", c.n, o.n)
	}
	for i := 0; i < c.n; i++ {
		c.stays[i] += o.stays[i]
		for j := 0; j < c.n; j++ {
			c.counts[i][j] += o.counts[i][j]
		}
	}
	return nil
}

// Ratio tracks a binary proportion (e.g. the paper's Pf and Ps
// probabilities) with exact integer counts.
type Ratio struct {
	hits, total int64
}

// ObserveN records many trials at once.
func (r *Ratio) ObserveN(hits, total int64) {
	r.hits += hits
	r.total += total
}

// Value returns the proportion, or 0 with no trials.
func (r *Ratio) Value() float64 {
	if r.total == 0 {
		return 0
	}
	return float64(r.hits) / float64(r.total)
}
