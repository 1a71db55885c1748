package cluster

import (
	"testing"
	"testing/quick"

	"hmeans/internal/vecmath"
)

// Property: cuts are hierarchically nested — the k+1 clustering is a
// refinement of the k clustering (every k+1 cluster lies entirely
// inside one k cluster). This is the defining property of cutting one
// merge tree at different heights.
func TestCutsAreNested(t *testing.T) {
	for _, l := range []Linkage{Complete, Single, Average, Ward} {
		l := l
		f := func(seed uint64) bool {
			n := int(seed%10) + 3
			pts := randomPoints(n, 2, seed^0xc0ffee)
			d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
			if err != nil {
				return false
			}
			for k := 1; k < n; k++ {
				coarse, err := d.CutK(k)
				if err != nil {
					return false
				}
				fine, err := d.CutK(k + 1)
				if err != nil {
					return false
				}
				// Two leaves in the same fine cluster must share the
				// coarse cluster too.
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						if fine.Labels[i] == fine.Labels[j] &&
							coarse.Labels[i] != coarse.Labels[j] {
							return false
						}
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("linkage %v: %v", l, err)
		}
	}
}

// Property: the number of merges applied at CutDistance is monotone
// non-increasing in K as the distance grows.
func TestKAtDistanceMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		pts := randomPoints(int(seed%8)+3, 2, seed^0xdead)
		d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
		if err != nil {
			return false
		}
		heights := d.MergeDistances()
		maxH := heights[len(heights)-1]
		prevK := d.Len() + 1
		steps := 20
		for s := 0; s <= steps; s++ {
			dist := maxH * float64(s) / float64(steps)
			if s == steps {
				dist = maxH // avoid float rounding below the final merge
			}
			k := d.KAtDistance(dist)
			if k > prevK {
				return false
			}
			prevK = k
		}
		return prevK == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CopheneticDistances has exactly n(n-1)/2 entries and the
// maximum equals the final merge height.
func TestCopheneticShape(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%9) + 2
		pts := randomPoints(n, 3, seed^0xf00d)
		d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
		if err != nil {
			return false
		}
		coph := d.CopheneticDistances()
		if len(coph) != n*(n-1)/2 {
			return false
		}
		maxC := 0.0
		for _, c := range coph {
			if c > maxC {
				maxC = c
			}
		}
		heights := d.MergeDistances()
		return maxC == heights[len(heights)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
