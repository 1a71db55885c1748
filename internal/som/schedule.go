package som

import "math"

// Training anneals the learning rate α(n) and the neighbourhood
// radius σ(n) exponentially, both monotonically decreasing as the
// paper requires: α from alpha0 and σ from half the larger grid side
// down to their floors.
const alpha0 = 0.5

// floors keep the kernel non-degenerate at the end of training: the
// radius must stay positive (σ→0 divides by zero in the kernel) and a
// zero learning rate would waste the final steps entirely.
const (
	alphaFloor = 0.01
	sigmaFloor = 0.35
)

// anneal returns the value at training progress t = n/Steps ∈ [0, 1)
// that starts at v0 and decays geometrically toward floor:
// v(t) = v0 · exp(−t·ln(v0/floor)), never below floor.
func anneal(v0, floor, t float64) float64 {
	if v0 <= floor {
		return floor
	}
	v := v0 * math.Exp(-t*math.Log(v0/floor))
	if v < floor {
		return floor
	}
	return v
}
