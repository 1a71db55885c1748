package core

import (
	"math"
	"reflect"
	"testing"

	"hmeans/internal/som"
)

// TestDetectClustersParallelDeterminism runs the whole pipeline —
// preprocessing, SOM training, placement, linkage — at worker counts
// {1, 2, 8} and requires bit-identical positions and merge sequences.
// This is the end-to-end version of the per-kernel determinism tests
// in som and cluster.
func TestDetectClustersParallelDeterminism(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := PipelineConfig{
			SOM: som.Config{Steps: 6000, Seed: seed},
		}
		cfg.Parallelism = 1
		base, err := DetectClusters(syntheticSuite(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			cfg.Parallelism = workers
			p, err := DetectClusters(syntheticSuite(t), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range p.Positions {
				for j := range p.Positions[i] {
					if math.Float64bits(p.Positions[i][j]) != math.Float64bits(base.Positions[i][j]) {
						t.Fatalf("seed %d workers %d: position %d = %v, serial %v",
							seed, workers, i, p.Positions[i], base.Positions[i])
					}
				}
			}
			if !reflect.DeepEqual(base.Dendrogram.Merges(), p.Dendrogram.Merges()) {
				t.Fatalf("seed %d workers %d: dendrogram differs from serial run", seed, workers)
			}
		}
	}
}
