//go:build !amd64

package som

// updateAVX2 has no kernel off amd64, where useAVX2 stays false and
// update runs updateGo.
func updateAVX2(w, x []float64, h float64) {
	panic("som: the AVX2 weight update runs on amd64 only")
}
