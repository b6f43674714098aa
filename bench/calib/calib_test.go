package calib

import (
	"testing"
	"time"
)

func TestFactorIsTheMedianOverNominal(t *testing.T) {
	if f := factor(nil); f != 1 {
		t.Errorf("factor of no samples = %v, want 1", f)
	}
	// One wild sample does not move the median.
	s := []time.Duration{Nominal, 2 * Nominal, 3 * Nominal, 2 * Nominal, 40 * Nominal}
	if f := factor(s); f != 2 {
		t.Errorf("factor = %v, want 2", f)
	}
	if s[4] != 40*Nominal {
		t.Error("factor reordered its input")
	}
}

func TestProbeSamplesAndLaps(t *testing.T) {
	p := Start()
	deadline := time.Now().Add(5 * time.Second)
	var f float64
	var n int
	for n == 0 && time.Now().Before(deadline) {
		time.Sleep(period)
		f, n = p.Lap()
	}
	if n == 0 || f <= 0 {
		t.Fatalf("first lap: factor %v over %d samples", f, n)
	}
	all, total := p.Stop()
	if total < n || all <= 0 {
		t.Errorf("stop: factor %v over %d samples, lap had %d", all, total, n)
	}
	if f2, n2 := p.Lap(); n2 > total-n || f2 <= 0 {
		t.Errorf("lap after stop: factor %v over %d samples", f2, n2)
	}
}
