package rng

import (
	"math"
	"testing"
	"testing/quick"
)

// Split returns a new Source whose stream is independent of the receiver's
// future output. It consumes one value from the receiver.
func (s *Source) Split() *Source {
	child := &Source{}
	child.reseed(s.Uint64())
	return child
}

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at %d: %d != %d", i, got, want)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values in 100 draws", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	var nonzero bool
	for i := 0; i < 10; i++ {
		if s.Uint64() != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("seed 0 produced an all-zero stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child's stream must differ from the parent's continuation.
	diverged := false
	for i := 0; i < 50; i++ {
		if parent.Uint64() != child.Uint64() {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatal("split child mirrors parent stream")
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(9).Split()
	c2 := New(9).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("split is not deterministic")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(5)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniform(t *testing.T) {
	s := New(6)
	const buckets, draws = 10, 100000
	counts := make([]int, buckets)
	for i := 0; i < draws; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(draws) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", b, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	s := New(8)
	for _, rate := range []float64{0.001, 0.5, 1, 10} {
		const n = 100000
		var sum float64
		for i := 0; i < n; i++ {
			sum += s.Exp(rate)
		}
		mean := sum / n
		want := 1 / rate
		if math.Abs(mean-want)/want > 0.03 {
			t.Fatalf("Exp(%v) mean %v, want ~%v", rate, mean, want)
		}
	}
}

func TestExpPositive(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		if v := s.Exp(2.5); v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("Exp produced invalid variate %v", v)
		}
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(14)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(15)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) frequency %v", got)
	}
}

// Property: Intn(n) is always within bounds for arbitrary seeds and sizes.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds give identical Float64 prefixes.
func TestQuickDeterministicFloats(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Exp(0.001)
	}
}
