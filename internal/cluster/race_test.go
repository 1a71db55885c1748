//go:build race

package cluster

// raceEnabled reports whether the test binary runs under the race
// detector. The quality-sweep oracle is single-goroutine arithmetic,
// which the detector cannot check but slows about twentyfold, so it
// runs its short schedule there.
const raceEnabled = true
