package stats

import (
	"math"
	"testing"
	"testing/quick"

	"drqos/internal/rng"
)

func TestRunningBasics(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.N() != 0 {
		t.Fatal("zero value not clean")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		r.Observe(x)
	}
	if r.N() != 8 {
		t.Fatalf("N = %d", r.N())
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v", r.Mean())
	}
	// Population variance of this classic set is 4; sample variance 32/7.
	if math.Abs(r.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("variance = %v", r.Variance())
	}
	if r.Min() != 2 || r.Max() != 9 {
		t.Fatalf("min/max = %v/%v", r.Min(), r.Max())
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Observe(3)
	if r.Mean() != 3 || r.Variance() != 0 || r.CI95() != 0 {
		t.Fatalf("single sample: mean=%v var=%v ci=%v", r.Mean(), r.Variance(), r.CI95())
	}
}

func TestRunningCI95Shrinks(t *testing.T) {
	src := rng.New(1)
	var small, large Running
	for i := 0; i < 100; i++ {
		small.Observe(src.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Observe(src.Float64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}

func TestRunningMergeMatchesSequential(t *testing.T) {
	src := rng.New(2)
	var whole, a, b Running
	for i := 0; i < 1000; i++ {
		x := src.Float64()*10 - 5
		whole.Observe(x)
		if i%2 == 0 {
			a.Observe(x)
		} else {
			b.Observe(x)
		}
	}
	a.Merge(&b)
	if a.N() != whole.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 {
		t.Fatalf("merged mean %v vs %v", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Fatalf("merged var %v vs %v", a.Variance(), whole.Variance())
	}
	if a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatal("merged min/max mismatch")
	}
}

func TestRunningMergeEmpty(t *testing.T) {
	var a, b Running
	a.Observe(1)
	a.Merge(&b) // no-op
	if a.N() != 1 {
		t.Fatal("merge with empty changed N")
	}
	b.Merge(&a)
	if b.N() != 1 || b.Mean() != 1 {
		t.Fatal("merge into empty failed")
	}
}

func TestTimeWeightedConstant(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 5)
	w.CloseAt(10)
	if w.Mean() != 5 {
		t.Fatalf("mean = %v", w.Mean())
	}
	if w.Duration() != 10 {
		t.Fatalf("duration = %v", w.Duration())
	}
}

func TestTimeWeightedSteps(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 0)
	w.Observe(1, 10) // value 0 for 1s
	w.Observe(3, 4)  // value 10 for 2s
	w.CloseAt(4)     // value 4 for 1s
	want := (0*1 + 10*2 + 4*1) / 4.0
	if math.Abs(w.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", w.Mean(), want)
	}
}

func TestTimeWeightedZeroDuration(t *testing.T) {
	var w TimeWeighted
	w.Observe(5, 42)
	if w.Mean() != 0 {
		t.Fatalf("zero-duration mean = %v", w.Mean())
	}
}

func TestTimeWeightedBackwardsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("backwards time did not panic")
		}
	}()
	var w TimeWeighted
	w.Observe(5, 1)
	w.Observe(4, 1)
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty slice")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean")
	}
}

func TestTransitionCounter(t *testing.T) {
	c := NewTransitionCounter(3)
	c.Record(2, 0)
	c.Record(2, 0)
	c.Record(2, 1)
	c.Record(2, 2) // stay
	c.Record(0, 1)
	p := c.Probs()
	if math.Abs(p[2][0]-2.0/3.0) > 1e-12 || math.Abs(p[2][1]-1.0/3.0) > 1e-12 {
		t.Fatalf("row 2 = %v", p[2])
	}
	if p[0][1] != 1 {
		t.Fatalf("row 0 = %v", p[0])
	}
	if p[1][0] != 0 && p[1][2] != 0 {
		t.Fatalf("row 1 should be empty: %v", p[1])
	}
	if c.Events(2) != 4 {
		t.Fatalf("events(2) = %d", c.Events(2))
	}
	cp := c.ChangeProb()
	if math.Abs(cp[2]-0.75) > 1e-12 {
		t.Fatalf("changeProb(2) = %v", cp[2])
	}
	if c.TotalJumps() != 4 {
		t.Fatalf("TotalJumps = %d", c.TotalJumps())
	}
	if c.Count(2, 0) != 2 || c.Count(2, 2) != 1 {
		t.Fatal("Count accessor wrong")
	}
}

func TestTransitionCounterPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Record did not panic")
		}
	}()
	NewTransitionCounter(2).Record(0, 5)
}

func TestTransitionCounterMerge(t *testing.T) {
	a := NewTransitionCounter(2)
	b := NewTransitionCounter(2)
	a.Record(0, 1)
	b.Record(0, 1)
	b.Record(1, 0)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Count(0, 1) != 2 || a.Count(1, 0) != 1 {
		t.Fatal("merge lost counts")
	}
	if err := a.Merge(NewTransitionCounter(3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

// Property: rows of Probs sum to ~1 whenever any jump was recorded from that
// state, and all entries are within [0,1].
func TestQuickTransitionRowsStochastic(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(8)
		c := NewTransitionCounter(n)
		events := 50 + src.Intn(200)
		for e := 0; e < events; e++ {
			c.Record(src.Intn(n), src.Intn(n))
		}
		p := c.Probs()
		for i := 0; i < n; i++ {
			var rowSum float64
			var hasJump bool
			for j := 0; j < n; j++ {
				if p[i][j] < 0 || p[i][j] > 1 {
					return false
				}
				rowSum += p[i][j]
				if i != j && c.Count(i, j) > 0 {
					hasJump = true
				}
			}
			if hasJump && math.Abs(rowSum-1) > 1e-9 {
				return false
			}
			if !hasJump && rowSum != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio")
	}
	r.Observe(true)
	r.Observe(false)
	r.Observe(true)
	if math.Abs(r.Value()-2.0/3.0) > 1e-12 {
		t.Fatalf("ratio = %v", r.Value())
	}
	r.ObserveN(0, 3)
	if math.Abs(r.Value()-2.0/6.0) > 1e-12 {
		t.Fatalf("ratio = %v", r.Value())
	}
	if r.Total() != 6 {
		t.Fatalf("total = %d", r.Total())
	}
}

// Property: Running.Mean matches the naive mean for arbitrary inputs.
func TestQuickRunningMeanMatchesNaive(t *testing.T) {
	f := func(xs []float64) bool {
		// Filter out NaN/Inf inputs; the accumulator is not defined for them.
		var clean []float64
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		var r Running
		for _, x := range clean {
			r.Observe(x)
		}
		naive := Mean(clean)
		if len(clean) == 0 {
			return r.Mean() == 0
		}
		scale := 1.0
		if m := math.Abs(naive); m > 1 {
			scale = m
		}
		return math.Abs(r.Mean()-naive)/scale < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
