package markov

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"drqos/internal/linalg"
	"drqos/internal/qos"
	"drqos/internal/rng"
)

// birthDeath builds an M/M/1/K-style chain with birth rate a and death
// rate b on n states; its stationary distribution is geometric with ratio
// a/b, a classic closed-form cross-check.
func birthDeath(t *testing.T, n int, a, b float64) *Chain {
	t.Helper()
	q := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var out float64
		if i+1 < n {
			q.Set(i, i+1, a)
			out += a
		}
		if i > 0 {
			q.Set(i, i-1, b)
			out += b
		}
		q.Set(i, i, -out)
	}
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func geometricPi(n int, rho float64) []float64 {
	pi := make([]float64, n)
	var sum float64
	for i := range pi {
		pi[i] = math.Pow(rho, float64(i))
		sum += pi[i]
	}
	for i := range pi {
		pi[i] /= sum
	}
	return pi
}

func assertDistEq(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("lengths %d vs %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("pi[%d] = %v, want %v (full: %v vs %v)", i, got[i], want[i], got, want)
		}
	}
}

func TestNewChainValidation(t *testing.T) {
	q := linalg.NewMatrix(2, 2)
	q.Set(0, 1, -1)
	q.Set(0, 0, 1)
	if _, err := NewChain(q); err == nil {
		t.Fatal("negative off-diagonal accepted")
	}
	q2 := linalg.NewMatrix(2, 2)
	q2.Set(0, 1, 1) // row sums to 1, not 0
	if _, err := NewChain(q2); err == nil {
		t.Fatal("non-zero row sum accepted")
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	// q01 = 2, q10 = 3 → π = (0.6, 0.4).
	q := linalg.NewMatrix(2, 2)
	q.Set(0, 1, 2)
	q.Set(0, 0, -2)
	q.Set(1, 0, 3)
	q.Set(1, 1, -3)
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.6, 0.4}
	for name, solve := range map[string]func() ([]float64, error){
		"gth":   c.SteadyStateGTH,
		"lu":    c.SteadyStateLU,
		"power": func() ([]float64, error) { return c.SteadyStatePower(1e-13, 1000000) },
		"auto":  c.SteadyState,
	} {
		pi, err := solve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertDistEq(t, pi, want, 1e-9)
	}
}

func TestSteadyStateBirthDeathAllSolversAgree(t *testing.T) {
	for _, tc := range []struct {
		n    int
		a, b float64
	}{
		{5, 1, 2},
		{9, 0.001, 0.001},
		{9, 3, 1},
		{20, 0.7, 1.1},
	} {
		c := birthDeath(t, tc.n, tc.a, tc.b)
		want := geometricPi(tc.n, tc.a/tc.b)
		gth, err := c.SteadyStateGTH()
		if err != nil {
			t.Fatal(err)
		}
		assertDistEq(t, gth, want, 1e-9)
		lu, err := c.SteadyStateLU()
		if err != nil {
			t.Fatal(err)
		}
		assertDistEq(t, lu, want, 1e-9)
		pow, err := c.SteadyStatePower(1e-13, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		assertDistEq(t, pow, want, 1e-6)
	}
}

func TestSteadyStateStiffRates(t *testing.T) {
	// Rates spanning many orders of magnitude (like λ=0.001 vs γ=1e-7)
	// must not break GTH.
	q := linalg.NewMatrix(3, 3)
	q.Set(0, 1, 1e-7)
	q.Set(1, 0, 1e-3)
	q.Set(1, 2, 1e-7)
	q.Set(2, 1, 1e-3)
	for i := 0; i < 3; i++ {
		var out float64
		for j := 0; j < 3; j++ {
			if i != j {
				out += q.At(i, j)
			}
		}
		q.Set(i, i, -out)
	}
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyStateGTH()
	if err != nil {
		t.Fatal(err)
	}
	// Detailed balance: π1/π0 = 1e-7/1e-3 = 1e-4.
	if r := pi[1] / pi[0]; math.Abs(r-1e-4) > 1e-9 {
		t.Fatalf("ratio = %v", r)
	}
	lu, err := c.SteadyStateLU()
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, lu, pi, 1e-12)
}

func TestSteadyStateReducibleFallsBack(t *testing.T) {
	// State 1 is absorbing: GTH must fail, SteadyState falls back to the
	// power method, which converges to mass on state 1.
	q := linalg.NewMatrix(2, 2)
	q.Set(0, 1, 1)
	q.Set(0, 0, -1)
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SteadyStateGTH(); !errors.Is(err, ErrNotSolvable) {
		t.Fatalf("GTH on reducible chain: %v", err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, pi, []float64{0, 1}, 1e-9)
}

func TestSteadyStateNoTransitions(t *testing.T) {
	q := linalg.NewMatrix(3, 3)
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, pi, []float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 1e-12)
}

func TestBuildMatchesPaperStructure(t *testing.T) {
	// Figure 1's 5-state chain: downward rates Pf·A·(λ+γ), upward
	// Ps·B·λ + Pf·T·μ.
	n := 5
	a, b, tm := ZeroJumpMatrices(n)
	a[3][0] = 0.5
	a[3][1] = 0.5
	b[0][2] = 1
	tm[1][3] = 1
	p := Params{
		N: n, Lambda: 0.001, Mu: 0.001, Gamma: 0.0001,
		Pf: 0.4, Ps: 0.3, A: a, B: b, T: tm,
	}
	c, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Rate(3, 0), 0.4*0.5*(0.001+0.0001); math.Abs(got-want) > 1e-15 {
		t.Fatalf("downward rate = %v, want %v", got, want)
	}
	if got, want := c.Rate(0, 2), 0.3*1*0.001; math.Abs(got-want) > 1e-15 {
		t.Fatalf("indirect upward rate = %v, want %v", got, want)
	}
	if got, want := c.Rate(1, 3), 0.4*1*0.001; math.Abs(got-want) > 1e-15 {
		t.Fatalf("termination upward rate = %v, want %v", got, want)
	}
	// Diagonal closes each row.
	g := c.Generator()
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += g.At(i, j)
		}
		if math.Abs(sum) > 1e-15 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	n := 3
	mkOK := func() Params {
		a, b, tm := ZeroJumpMatrices(n)
		a[2][0] = 1
		b[0][2] = 1
		tm[0][1] = 1
		return Params{N: n, Lambda: 1, Mu: 1, Gamma: 0, Pf: 0.5, Ps: 0.5, A: a, B: b, T: tm}
	}
	if err := func() error { p := mkOK(); return p.Validate() }(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Params){
		func(p *Params) { p.N = 1 },
		func(p *Params) { p.Lambda = -1 },
		func(p *Params) { p.Pf = 1.5 },
		func(p *Params) { p.Ps = -0.1 },
		func(p *Params) { p.A[0][2] = 0.5 },                  // A above diagonal
		func(p *Params) { p.B[2][0] = 0.5 },                  // B below diagonal
		func(p *Params) { p.T[1][1] = 0.5 },                  // T on diagonal
		func(p *Params) { p.A[2][0] = 2 },                    // out of range
		func(p *Params) { p.A = p.A[:2] },                    // wrong rows
		func(p *Params) { p.B[0] = p.B[0][:1] },              // wrong cols
		func(p *Params) { p.T[0][1] = 0.7; p.T[0][2] = 0.7 }, // row > 1
	}
	for i, mutate := range cases {
		p := mkOK()
		mutate(&p)
		if err := p.Validate(); !errors.Is(err, ErrInvalidParams) {
			t.Fatalf("case %d: err = %v", i, err)
		}
	}
}

func TestMeanBandwidth(t *testing.T) {
	spec := qos.ElasticSpec{Min: 100, Max: 300, Increment: 100, Utility: 1}
	mean, err := MeanBandwidth([]float64{0.5, 0, 0.5}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 200 {
		t.Fatalf("mean = %v", mean)
	}
	if _, err := MeanBandwidth([]float64{1}, spec); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestTransientConvergesToSteadyState(t *testing.T) {
	c := birthDeath(t, 5, 1, 2)
	p0 := []float64{1, 0, 0, 0, 0}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	long, err := c.Transient(p0, 1000, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, long, pi, 1e-6)
}

func TestTransientShortTime(t *testing.T) {
	c := birthDeath(t, 3, 1, 1)
	p0 := []float64{1, 0, 0}
	at0, err := c.Transient(p0, 0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	assertDistEq(t, at0, p0, 1e-12)
	// For tiny t, mass leaks at rate ~q01·t.
	eps, err := c.Transient(p0, 1e-4, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if eps[1] < 0.9e-4 || eps[1] > 1.1e-4 {
		t.Fatalf("first-order mass = %v, want ~1e-4", eps[1])
	}
}

func TestTransientValidation(t *testing.T) {
	c := birthDeath(t, 3, 1, 1)
	if _, err := c.Transient([]float64{1, 0}, 1, 0); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, err := c.Transient([]float64{0.5, 0.2, 0.1}, 1, 0); err == nil {
		t.Fatal("non-normalized accepted")
	}
	if _, err := c.Transient([]float64{1, 0, 0}, -1, 0); err == nil {
		t.Fatal("negative time accepted")
	}
	if _, err := c.Transient([]float64{2, -1, 0}, 1, 0); err == nil {
		t.Fatal("negative probability accepted")
	}
}

// Property: for random irreducible birth-death-like chains, GTH and LU
// agree and π·Q ≈ 0.
func TestQuickSolversAgree(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 2 + src.Intn(10)
		q := linalg.NewMatrix(n, n)
		for i := 0; i < n; i++ {
			var out float64
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				// Dense random rates keep the chain irreducible.
				r := 0.01 + src.Float64()
				q.Set(i, j, r)
				out += r
			}
			q.Set(i, i, -out)
		}
		c, err := NewChain(q)
		if err != nil {
			return false
		}
		gth, err := c.SteadyStateGTH()
		if err != nil {
			return false
		}
		lu, err := c.SteadyStateLU()
		if err != nil {
			return false
		}
		for i := range gth {
			if math.Abs(gth[i]-lu[i]) > 1e-8 {
				return false
			}
		}
		// πQ ≈ 0.
		for j := 0; j < n; j++ {
			var res float64
			for i := 0; i < n; i++ {
				res += gth[i] * c.Rate(i, j)
			}
			if math.Abs(res) >= 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Build + SteadyState yields a valid distribution for random
// sub-stochastic jump matrices whenever the chain is solvable.
func TestQuickBuildSolvable(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		n := 3 + src.Intn(7)
		a, b, tm := ZeroJumpMatrices(n)
		// Dense downward and upward structure keeps irreducibility.
		for i := 1; i < n; i++ {
			a[i][i-1] = 1 // always possible to fall one state
		}
		for i := 0; i < n-1; i++ {
			b[i][i+1] = 0.5
			tm[i][n-1] = 0.5 // terminations jump to the top
		}
		p := Params{
			N: n, Lambda: 0.001, Mu: 0.001, Gamma: 1e-6,
			Pf: 0.1 + 0.8*src.Float64(), Ps: 0.1 + 0.8*src.Float64(),
			A: a, B: b, T: tm,
		}
		c, err := Build(p)
		if err != nil {
			return false
		}
		pi, err := c.SteadyState()
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
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMarkovSolve(b *testing.B) {
	// Fig 1-scale chain (9 states) solved with GTH, as the experiment
	// harness does for every data point.
	n := 9
	a, bm, tm := ZeroJumpMatrices(n)
	for i := 1; i < n; i++ {
		a[i][0] = 0.6
		a[i][i-1] = 0.4
		if i > 1 {
			a[i][0] = 0.5
			a[i][i-1] = 0.3
			a[i][1] = 0.2
		}
	}
	for i := 0; i < n-1; i++ {
		bm[i][i+1] = 0.7
		bm[i][n-1] = 0.3
		tm[i][i+1] = 1
	}
	p := Params{N: n, Lambda: 0.001, Mu: 0.001, Gamma: 0, Pf: 0.3, Ps: 0.4, A: a, B: bm, T: tm}
	c, err := Build(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SteadyStateGTH(); err != nil {
			b.Fatal(err)
		}
	}
}
