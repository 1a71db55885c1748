package cluster

import "fmt"

// Algorithm selects the agglomeration strategy that turns a condensed
// distance matrix into a dendrogram.
type Algorithm int

const (
	// AlgoAuto (the default) picks per run: the nearest-pair scan up
	// to autoThreshold points, NN-chain above it. Small suites keep
	// the historical scan output byte-for-byte — SOM grid positions
	// produce many tied merge heights, and with ties the two
	// algorithms build equivalent but not identical trees — while
	// large runs get the O(n²) path the scan's O(n³) cannot match.
	AlgoAuto Algorithm = iota
	// AlgoScan forces the naive O(n³) nearest-pair scan — the oracle
	// path every fast path is proven against.
	AlgoScan
	// AlgoNNChain forces the O(n²) nearest-neighbour-chain algorithm,
	// exact for all four (reducible) linkages; see nnchain.go.
	AlgoNNChain
)

// autoThreshold is the point count above which AlgoAuto
// switches from the scan to NN-chain. Below it the scan finishes in
// well under a millisecond, so nothing is gained by switching — and
// staying put keeps historical outputs (first-minimal tie-breaks on
// tied merge heights, common with integer SOM grid coordinates)
// byte-identical. Above it the scan's O(n³) grows two orders of
// magnitude per decade of n while NN-chain grows one.
const autoThreshold = 128

// String returns the algorithm's name.
func (a Algorithm) String() string {
	switch a {
	case AlgoAuto:
		return "auto"
	case AlgoScan:
		return "scan"
	case AlgoNNChain:
		return "nnchain"
	default:
		return "unknown"
	}
}

// effectiveAlgorithm resolves the Options' algorithm selection for a
// run over n points, collapsing AlgoAuto to a concrete path.
func (o Options) effectiveAlgorithm(n int) (Algorithm, error) {
	switch o.Algorithm {
	case AlgoScan, AlgoNNChain:
		return o.Algorithm, nil
	case AlgoAuto:
		if n > autoThreshold {
			return AlgoNNChain, nil
		}
		return AlgoScan, nil
	default:
		return 0, fmt.Errorf("cluster: unknown algorithm %d", int(o.Algorithm))
	}
}
