package load

import (
	"testing"
	"time"
)

func TestQuantileIsAnExactOrderStatistic(t *testing.T) {
	d := []time.Duration{50, 10, 40, 20, 30}
	for q, want := range map[float64]time.Duration{0.5: 30, 0.99: 50, 0.01: 10, 0.2: 10, 0.8: 40} {
		if got := Quantile(d, q); got != want {
			t.Errorf("Quantile(%v) = %d, want %d", q, got, want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("Quantile of nothing is not 0")
	}
}
