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

func TestTimeWeightedConstant(t *testing.T) {
	var w TimeWeighted
	w.Observe(0, 5)
	w.CloseAt(10)
	if w.Mean() != 5 {
		t.Fatalf("mean = %v", w.Mean())
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

// Mean of a float64 slice; 0 for an empty slice. It is the naive reference
// Running.Mean is checked against.
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
	if c.Events(2) != 4 || c.Events(1) != 0 {
		t.Fatalf("events(2) = %d, events(1) = %d", c.Events(2), c.Events(1))
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

func TestRatio(t *testing.T) {
	var r Ratio
	if r.Value() != 0 {
		t.Fatal("empty ratio")
	}
	r.ObserveN(2, 3)
	if math.Abs(r.Value()-2.0/3.0) > 1e-12 {
		t.Fatalf("ratio = %v", r.Value())
	}
	r.ObserveN(0, 3)
	if math.Abs(r.Value()-2.0/6.0) > 1e-12 {
		t.Fatalf("ratio = %v", r.Value())
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
