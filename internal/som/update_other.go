//go:build !amd64

package som

// updateAVX2 has no kernel off amd64, where useAVX2 stays false and
// update runs updateGo.
func updateAVX2(w, x []float64, h float64) {
	panic("som: the AVX2 weight update runs on amd64 only")
}

// bmuAVX2 has no kernel off amd64, where useAVX2 stays false and
// bmuSeeded runs its Go loop.
func bmuAVX2(sums *[8]float64, x, w []float64, boff int, bound float64, live uint64) (left uint64, coords int) {
	panic("som: the AVX2 BMU search runs on amd64 only")
}
