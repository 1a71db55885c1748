//go:build race

package service

// raceEnabled reports whether the test binary runs under the race
// detector. The warm-server sweep is one goroutine's arithmetic, which
// the detector cannot check but slows about twentyfold, so it scores
// fewer seeds there.
const raceEnabled = true
