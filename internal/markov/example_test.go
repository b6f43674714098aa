package markov_test

import (
	"fmt"

	"drqos/internal/markov"
	"drqos/internal/qos"
)

// Example builds the paper's Figure-1-style chain from hand-written
// parameters and reports the mean reserved bandwidth.
func Example() {
	n := 5
	a, b, t := make([][]float64, n), make([][]float64, n), make([][]float64, n)
	for i := range a {
		a[i], b[i], t[i] = make([]float64, n), make([]float64, n), make([]float64, n)
	}
	for i := 1; i < n; i++ {
		a[i][i-1] = 0.5 // arrivals push one level down half the time
	}
	for i := 0; i < n-1; i++ {
		b[i][i+1] = 0.25 // indirect chaining pulls up occasionally
		t[i][n-1] = 0.5  // terminations free enough room to reach the top
	}
	chain, err := markov.Build(markov.Params{
		N: n, Lambda: 0.001, Mu: 0.001, Gamma: 0,
		Pf: 0.04, Ps: 0.3, A: a, B: b, T: t,
	})
	if err != nil {
		panic(err)
	}
	// A new channel is admitted at any level with equal probability; the
	// chain is irreducible, so the birth distribution does not move π.
	birth := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	spec := qos.ElasticSpec{Min: 100, Max: 500, Increment: 100, Utility: 1}
	_, mean, err := markov.Solve(chain, birth, 0, spec)
	if err != nil {
		panic(err)
	}
	fmt.Printf("mean reserved bandwidth: %.0f Kbps\n", mean)
	// Output:
	// mean reserved bandwidth: 475 Kbps
}
