// Package cluster implements agglomerative hierarchical clustering
// with selectable linkage, dendrogram construction, and the cut
// operations (by cluster count or by merging distance) the
// hierarchical means consume.
//
// The paper's configuration is complete linkage — cluster-to-cluster
// distance is the distance of the furthest pair of points,
// d(wᵢ, wⱼ) = max d(x, y) — over Euclidean point distance, applied to
// the 2-D SOM positions of the workloads. Single, average and Ward
// linkage are provided for the ablation benches.
package cluster

import "fmt"

// Linkage selects the cluster-to-cluster distance definition.
type Linkage int

const (
	// Complete is the furthest-pair distance (the paper's choice).
	Complete Linkage = iota
	// Single is the nearest-pair distance.
	Single
	// Average is the unweighted mean pairwise distance (UPGMA).
	Average
	// Ward merges the pair minimizing the increase in total
	// within-cluster variance (implemented via the Lance–Williams
	// update on squared Euclidean distances).
	Ward
)

// String returns the linkage's name.
func (l Linkage) String() string {
	switch l {
	case Complete:
		return "complete"
	case Single:
		return "single"
	case Average:
		return "average"
	case Ward:
		return "ward"
	default:
		return "unknown"
	}
}

// update implements the Lance–Williams recurrence: the distance from
// the merger of clusters a (size na) and b (size nb) to another
// cluster c (size nc), given the pre-merge distances dac, dbc and dab.
func (l Linkage) update(dac, dbc, dab float64, na, nb, nc int) float64 {
	switch l {
	case Complete:
		if dac > dbc {
			return dac
		}
		return dbc
	case Single:
		if dac < dbc {
			return dac
		}
		return dbc
	case Average:
		fa := float64(na) / float64(na+nb)
		fb := float64(nb) / float64(na+nb)
		return fa*dac + fb*dbc
	case Ward:
		// Operates on squared distances; Dendrogram takes care of
		// squaring inputs and unsquaring merge heights.
		n := float64(na + nb + nc)
		return (float64(na+nc)*dac + float64(nb+nc)*dbc - float64(nc)*dab) / n
	default:
		panic(fmt.Sprintf("cluster: unknown linkage %d", int(l)))
	}
}
