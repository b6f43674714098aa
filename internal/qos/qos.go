// Package qos models the paper's elastic Quality-of-Service: the min-max
// range QoS specification (§2.2), the discrete bandwidth levels separated by
// the increment size Δ (§3.2), and the two range-QoS adaptation policies —
// the coefficient (utility-proportional) scheme and the max-utility scheme.
//
// Bandwidth is carried as integral Kb/s. The paper's workloads use
// Bmin = 100 Kb/s, Bmax = 500 Kb/s, Δ ∈ {50, 100} Kb/s on 10 Mb/s links;
// integer arithmetic keeps every conservation invariant exact.
package qos

import (
	"errors"
	"fmt"
)

// Kbps is a bandwidth amount in kilobits per second.
type Kbps int64

// String renders the bandwidth in human units.
func (k Kbps) String() string {
	if k >= 1000 && k%1000 == 0 {
		return fmt.Sprintf("%dMbps", k/1000)
	}
	return fmt.Sprintf("%dKbps", int64(k))
}

// ErrInvalidSpec reports a malformed elastic QoS specification.
var ErrInvalidSpec = errors.New("qos: invalid elastic spec")

// ElasticSpec is the min-max range QoS model (§2.2): the client specifies
// the minimum bandwidth required for acceptable service, the maximum useful
// bandwidth, the adjustment increment, and the utility weight used when
// extra resources are distributed.
type ElasticSpec struct {
	Min       Kbps
	Max       Kbps
	Increment Kbps
	Utility   float64
}

// Validate checks the structural constraints from §3.2: positive minimum
// and increment, Max ≥ Min, and (Max − Min) an integral multiple of the
// increment ("the interval between the minimum and the maximum resources is
// an integral multiple of the increment size").
func (s ElasticSpec) Validate() error {
	switch {
	case s.Min <= 0:
		return fmt.Errorf("%w: Min %v must be positive", ErrInvalidSpec, s.Min)
	case s.Max < s.Min:
		return fmt.Errorf("%w: Max %v below Min %v", ErrInvalidSpec, s.Max, s.Min)
	case s.Increment <= 0:
		return fmt.Errorf("%w: Increment %v must be positive", ErrInvalidSpec, s.Increment)
	case (s.Max-s.Min)%s.Increment != 0:
		return fmt.Errorf("%w: range %v..%v not a multiple of increment %v",
			ErrInvalidSpec, s.Min, s.Max, s.Increment)
	case s.Utility < 0:
		return fmt.Errorf("%w: negative utility %v", ErrInvalidSpec, s.Utility)
	}
	return nil
}

// States returns N, the number of bandwidth levels a channel with this spec
// can occupy: N = 1 + (Max − Min)/Δ (§3.2).
func (s ElasticSpec) States() int {
	return 1 + int((s.Max-s.Min)/s.Increment)
}

// Bandwidth returns the bandwidth of state i (S_i = Bmin + i·Δ). It panics
// on an out-of-range state, which is always a programming error.
func (s ElasticSpec) Bandwidth(state int) Kbps {
	if state < 0 || state >= s.States() {
		panic(fmt.Sprintf("qos: state %d outside [0,%d)", state, s.States()))
	}
	return s.Min + Kbps(state)*s.Increment
}

// DefaultSpec returns the paper's workload specification: a DR-connection
// needing 100 Kb/s minimum (a "recognizable" video stream) up to 500 Kb/s
// ("high-quality image") with a 50 Kb/s increment and unit utility (§4:
// "the utilities of all connections are the same for fair distribution").
func DefaultSpec() ElasticSpec {
	return ElasticSpec{Min: 100, Max: 500, Increment: 50, Utility: 1}
}
