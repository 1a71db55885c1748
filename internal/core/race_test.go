//go:build race

package core

// raceEnabled reports whether the test binary runs under the race
// detector. The sweep oracle is single-goroutine arithmetic, which the
// detector cannot check but slows severalfold, so it runs its short
// schedule there.
const raceEnabled = true
