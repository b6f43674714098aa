// Package rng provides a small, deterministic pseudo-random number
// generator suite used by every stochastic component of the library
// (topology generation, workload generation, failure injection).
//
// The generator is xoshiro256**, seeded through splitmix64 so that any
// 64-bit seed, including 0, produces a well-mixed state. Determinism is a
// hard requirement: the simulator promises bit-identical trajectories for
// identical seeds, which the standard library's global rand cannot provide
// once goroutines interleave. Each component therefore owns its own *Source.
package rng

import "math"

// Source is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is NOT ready for use; construct with New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from the given 64-bit seed. Distinct seeds
// yield statistically independent streams; the same seed always yields the
// same stream.
func New(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

func (s *Source) reseed(seed uint64) {
	// splitmix64 expansion of the seed into 256 bits of state. xoshiro256**
	// requires a state that is not all-zero; splitmix64 guarantees that for
	// any input.
	x := seed
	for i := range s.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		s.s[i] = z ^ (z >> 31)
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17

	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits scaled by 2^-53, the canonical conversion.
	return float64(s.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling with rejection to avoid
	// modulo bias.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= -bound%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	lo = a * b
	return hi, lo
}

// Exp returns an exponentially distributed variate with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	// Inverse-CDF sampling; 1-Float64() is in (0,1], avoiding log(0).
	return -math.Log(1-s.Float64()) / rate
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}
