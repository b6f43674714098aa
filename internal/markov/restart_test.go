package markov

import (
	"math"
	"testing"
	"testing/quick"

	"drqos/internal/linalg"
	"drqos/internal/qos"
	"drqos/internal/rng"
)

func TestWithRestartNoDynamics(t *testing.T) {
	// Q = 0: the stationary distribution of the restart chain is exactly
	// the birth distribution.
	q := linalg.NewMatrix(4, 4)
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	beta := []float64{0.1, 0.2, 0.3, 0.4}
	rc, err := c.WithRestart(beta, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := rc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, pi, beta, 1e-9)
}

func TestWithRestartHighDeathRateDominates(t *testing.T) {
	// With δ far above the chain's own rates, π → β.
	c := birthDeath(t, 5, 0.001, 0.002)
	beta := []float64{0, 0, 0, 0, 1}
	rc, err := c.WithRestart(beta, 10)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := rc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	if pi[4] < 0.99 {
		t.Fatalf("high delta should pin mass at birth state: %v", pi)
	}
}

func TestWithRestartLowDeathRateVanishes(t *testing.T) {
	// With δ far below the chain's own rates, π → the chain's own
	// stationary distribution.
	c := birthDeath(t, 5, 1, 2)
	want, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	beta := []float64{0, 0, 0, 0, 1}
	rc, err := c.WithRestart(beta, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := rc.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, pi, want, 1e-5)
}

func TestWithRestartValidation(t *testing.T) {
	c := birthDeath(t, 3, 1, 1)
	if _, err := c.WithRestart([]float64{1, 0}, 0.1); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, err := c.WithRestart([]float64{1, 0, 0}, -0.1); err == nil {
		t.Fatal("negative delta accepted")
	}
	if _, err := c.WithRestart([]float64{0.5, 0.2, 0.1}, 0.1); err == nil {
		t.Fatal("non-normalized beta accepted")
	}
	if _, err := c.WithRestart([]float64{2, -1, 0}, 0.1); err == nil {
		t.Fatal("negative beta accepted")
	}
}

func TestWithRestartIsValidGenerator(t *testing.T) {
	c := birthDeath(t, 4, 1, 3)
	rc, err := c.WithRestart([]float64{0.25, 0.25, 0.25, 0.25}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Row sums of the restart generator are zero (NewChain would verify;
	// here we check directly).
	for i := 0; i < rc.N(); i++ {
		var sum float64
		for j := 0; j < rc.N(); j++ {
			sum += rc.Rate(i, j)
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSteadyStateFromReducible(t *testing.T) {
	// Two absorbing components: the limit depends on the start vector.
	q := linalg.NewMatrix(4, 4)
	q.Set(0, 1, 1)
	q.Set(0, 0, -1) // 0 → 1 (absorbing)
	q.Set(3, 2, 1)
	q.Set(3, 3, -1) // 3 → 2 (absorbing)
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	fromLeft, err := c.SteadyStateFrom([]float64{1, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, fromLeft, []float64{0, 1, 0, 0}, 1e-9)
	fromRight, err := c.SteadyStateFrom([]float64{0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, fromRight, []float64{0, 0, 1, 0}, 1e-9)
}

func TestSteadyStateFromIrreducibleIgnoresP0(t *testing.T) {
	c := birthDeath(t, 5, 1, 2)
	want, err := c.SteadyStateGTH()
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.SteadyStateFrom([]float64{0, 0, 0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, got, want, 1e-9)
}

func TestSteadyStateFromWrongLength(t *testing.T) {
	// Reducible chain (so GTH fails and p0 is consulted) with a wrong p0.
	q := linalg.NewMatrix(2, 2)
	q.Set(0, 1, 1)
	q.Set(0, 0, -1)
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SteadyStateFrom([]float64{1}); err == nil {
		t.Fatal("wrong length accepted")
	}
}

func TestBuildGeneralMatchesManual(t *testing.T) {
	n := 3
	jump := [][]float64{
		{0, 0.5, 0.25},
		{0.3, 0, 0.3},
		{1, 0, 0},
	}
	c, err := BuildGeneral(n, []Term{{Name: "x", Rate: 2, Weight: 0.5, Jump: jump}})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Rate(0, 1); math.Abs(got-2*0.5*0.5) > 1e-15 {
		t.Fatalf("rate(0,1) = %v", got)
	}
	if got := c.Rate(2, 0); math.Abs(got-2*0.5*1) > 1e-15 {
		t.Fatalf("rate(2,0) = %v", got)
	}
	// Two terms accumulate.
	c2, err := BuildGeneral(n, []Term{
		{Name: "x", Rate: 2, Weight: 0.5, Jump: jump},
		{Name: "y", Rate: 1, Weight: 1, Jump: jump},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c2.Rate(0, 1); math.Abs(got-(2*0.5*0.5+1*1*0.5)) > 1e-15 {
		t.Fatalf("accumulated rate = %v", got)
	}
}

func TestBuildGeneralValidation(t *testing.T) {
	good := [][]float64{{0, 1}, {1, 0}}
	cases := []struct {
		name  string
		n     int
		terms []Term
	}{
		{"n too small", 1, nil},
		{"negative rate", 2, []Term{{Rate: -1, Weight: 1, Jump: good}}},
		{"weight above 1", 2, []Term{{Rate: 1, Weight: 2, Jump: good}}},
		{"wrong rows", 2, []Term{{Rate: 1, Weight: 1, Jump: good[:1]}}},
		{"wrong cols", 2, []Term{{Rate: 1, Weight: 1, Jump: [][]float64{{0}, {1, 0}}}}},
		{"entry above 1", 2, []Term{{Rate: 1, Weight: 1, Jump: [][]float64{{0, 2}, {1, 0}}}}},
		{"row above 1", 3, []Term{{Rate: 1, Weight: 1, Jump: [][]float64{{0, 0.7, 0.7}, {0, 0, 0}, {0, 0, 0}}}}},
	}
	for _, tc := range cases {
		if _, err := BuildGeneral(tc.n, tc.terms); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
	// Empty terms are fine: a transition-free chain.
	c, err := BuildGeneral(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 3 {
		t.Fatalf("n = %d", c.N())
	}
}

// Property: for random chains and birth distributions, the restart chain's
// stationary distribution is a valid distribution and moves from β toward
// the chain's own stationary distribution as δ decreases.
func TestQuickRestartInterpolates(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 3 + src.Intn(5)
		q := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			var out float64
			for j := 0; j < n; j++ {
				if i != j {
					r := 0.1 + src.Float64()
					q.Set(i, j, r)
					out += r
				}
			}
			q.Set(i, i, -out)
		}
		c, err := NewChain(q)
		if err != nil {
			return false
		}
		beta := make([]float64, n)
		beta[src.Intn(n)] = 1
		for _, delta := range []float64{1e-6, 1, 1e6} {
			rc, err := c.WithRestart(beta, delta)
			if err != nil {
				return false
			}
			pi, err := rc.SteadyState()
			if err != nil {
				return false
			}
			var sum float64
			for _, v := range pi {
				if v < -1e-12 {
					return false
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSolve: Solve is the plain chain's stationary solution when delta is
// zero and the restart extension's when it is positive, with the mean
// bandwidth of each, whatever the rates' common scale.
func TestSolve(t *testing.T) {
	a, b, tm := ZeroJumpMatrices(5)
	a[2][0] = 0.5
	b[0][3] = 0.25
	tm[1][4] = 1
	p := Params{N: 5, Lambda: 0.001, Mu: 0.001, Pf: 0.04, Ps: 0.3, A: a, B: b, T: tm}
	spec := qos.ElasticSpec{Min: 100, Max: 500, Increment: 100, Utility: 1}
	birth := []float64{0, 0, 0, 0.5, 0.5}
	c, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, delta := range []float64{0, 1e-6} {
		want := c
		if delta > 0 {
			if want, err = c.WithRestart(birth, delta); err != nil {
				t.Fatal(err)
			}
		}
		wantPi, err := want.SteadyStateFrom(birth)
		if err != nil {
			t.Fatal(err)
		}
		wantMean, err := MeanBandwidth(wantPi, spec)
		if err != nil {
			t.Fatal(err)
		}
		pi, mean, err := Solve(c, birth, delta, spec)
		if err != nil {
			t.Fatal(err)
		}
		assertDistEq(t, pi, wantPi, 0)
		if mean != wantMean || mean < 100 || mean > 500 {
			t.Fatalf("delta %g: mean %v, want %v within the spec", delta, mean, wantMean)
		}
		// π does not depend on the rates' common scale.
		scaled := p
		scaled.Lambda, scaled.Mu = 1, 1
		sc, err := Build(scaled)
		if err != nil {
			t.Fatal(err)
		}
		spi, _, err := Solve(sc, birth, delta/p.Lambda, spec)
		if err != nil {
			t.Fatal(err)
		}
		assertDistEq(t, spi, pi, 1e-9)
	}
	if _, _, err := Solve(c, []float64{1}, 1e-6, spec); err == nil {
		t.Fatal("a birth distribution over the wrong states was accepted")
	}
}
