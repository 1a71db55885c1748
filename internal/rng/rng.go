// Package rng provides a small, deterministic pseudo-random number
// generator used throughout the library.
//
// Reproducibility is a hard requirement for this project: the paper's
// pipeline (SOM training order, weight initialization, sampling noise)
// is stochastic, and every experiment must regenerate the same tables
// and figures on every run. The standard library's math/rand is
// perfectly usable, but pinning our own tiny generator guarantees the
// stream is stable across Go releases and lets substrate packages seed
// sub-streams cheaply.
//
// The generator is xoshiro256**, seeded through SplitMix64 as its
// authors recommend. Both algorithms are public domain
// (Blackman & Vigna, 2018).
package rng

import "math"

// Source is a deterministic xoshiro256** pseudo-random number source.
// The zero value is not valid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64. Two Sources
// built from the same seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not be seeded with all zeros; SplitMix64 cannot
	// produce four zero outputs in a row, but keep the guard explicit.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value of the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits → uniform double in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if
// n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation would be
	// overkill here; simple rejection keeps the stream easy to
	// reason about.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// NormFloat64 returns a standard normally distributed value
// (mean 0, stddev 1) using the Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
