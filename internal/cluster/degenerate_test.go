package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"hmeans/internal/vecmath"
)

// identicalPoints returns n copies of the same 2-D point — the
// all-identical-workloads degenerate input.
func identicalPoints(n int) []vecmath.Vector {
	out := make([]vecmath.Vector, n)
	for i := range out {
		out[i] = vecmath.Vector{1.5, -2.5}
	}
	return out
}

func TestCutKDegenerateRequests(t *testing.T) {
	d, err := NewDendrogramOpts(identicalPoints(5), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		k    int
		ok   bool
	}{
		{"k below range", 0, false},
		{"negative k", -3, false},
		{"k above n", 6, false},
		{"far above n", 1 << 30, false},
		{"k = 1", 1, true},
		{"k = n", 5, true},
	} {
		a, err := d.CutK(tc.k)
		if tc.ok {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			} else if a.K != tc.k {
				t.Errorf("%s: got %d clusters, want %d", tc.name, a.K, tc.k)
			}
			continue
		}
		if !errors.Is(err, ErrDegenerateCut) {
			t.Errorf("%s: error %v, want ErrDegenerateCut", tc.name, err)
		}
		var ce *CutError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error %T does not expose *CutError", tc.name, err)
		} else if ce.K != tc.k || ce.N != 5 {
			t.Errorf("%s: CutError carries k=%d n=%d, want k=%d n=5", tc.name, ce.K, ce.N, tc.k)
		}
	}
}

func TestSinglePointDendrogramDegenerates(t *testing.T) {
	d, err := NewDendrogramOpts(identicalPoints(1), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a, err := d.CutK(1); err != nil || a.K != 1 {
		t.Fatalf("CutK(1) on n=1: %v, %v", a, err)
	}
	if _, err := d.CutK(2); !errors.Is(err, ErrDegenerateCut) {
		t.Errorf("CutK(2) on n=1: error %v, want ErrDegenerateCut", err)
	}
	// A quality sweep needs at least two clusters, which one point
	// cannot provide: typed error, not a panic or an empty success.
	if _, err := d.QualitySweep(identicalPoints(1), 2, 8); !errors.Is(err, ErrDegenerateCut) {
		t.Errorf("QualitySweep on n=1: error %v, want ErrDegenerateCut", err)
	}
}

func TestEachCutEmptyRangeTyped(t *testing.T) {
	d, err := NewDendrogramOpts(identicalPoints(4), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EachCut(5, 2, func(Assignment) error { return nil }); !errors.Is(err, ErrDegenerateCut) {
		t.Errorf("EachCut(5,2): error %v, want ErrDegenerateCut", err)
	}
}

func TestAllIdenticalPointsStayFinite(t *testing.T) {
	pts := identicalPoints(6)
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every merge happens at distance 0; cuts must still be well
	// formed for every k.
	for k := 1; k <= 6; k++ {
		a, err := d.CutK(k)
		if err != nil {
			t.Fatalf("CutK(%d): %v", k, err)
		}
		if a.K != k || len(a.Labels) != 6 {
			t.Fatalf("CutK(%d): got K=%d labels=%d", k, a.K, len(a.Labels))
		}
	}
	// The quality sweep runs without panicking; its indices may be
	// degenerate values (silhouette 0, infinite Davies-Bouldin) but
	// never garbage labels.
	sweep, err := d.QualitySweep(pts, 2, 5)
	if err != nil {
		t.Fatalf("QualitySweep: %v", err)
	}
	if _, err := RecommendK(sweep); err != nil {
		t.Fatalf("RecommendK: %v", err)
	}
	if _, err := RecommendK(nil); !errors.Is(err, ErrDegenerateCut) {
		t.Errorf("RecommendK(nil): error %v, want ErrDegenerateCut", err)
	}
}

func TestSilhouetteAndDaviesBouldinDegenerate(t *testing.T) {
	pts := identicalPoints(3)
	dm := vecmath.DistanceMatrix(vecmath.Euclidean, pts)
	one := Assignment{Labels: []int{0, 0, 0}, K: 1}
	if _, err := Silhouette(dm, one); !errors.Is(err, ErrDegenerateCut) {
		t.Errorf("Silhouette with k=1: error %v, want ErrDegenerateCut", err)
	}
	if _, err := DaviesBouldin(pts, one); !errors.Is(err, ErrDegenerateCut) {
		t.Errorf("DaviesBouldin with k=1: error %v, want ErrDegenerateCut", err)
	}
}

func TestLinkageCancellation(t *testing.T) {
	// 1,000 points take tens of milliseconds to link, so the 1 ms
	// deadline below fires mid-build rather than after it.
	pts := make([]vecmath.Vector, 1000)
	for i := range pts {
		pts[i] = vecmath.Vector{float64(i), float64(i % 7)}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: error %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Ctx: ctx2})
	if err == nil {
		// Tiny inputs can legitimately finish inside the deadline on a
		// fast machine; only a hang is a failure.
		t.Skip("build finished before the deadline")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline build: error %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("linkage did not stop after deadline")
	}
}

// TestLinkageCtxBitIdentical proves the ctx-aware path reproduces the
// context-free merge sequence exactly when the context never fires.
func TestLinkageCtxBitIdentical(t *testing.T) {
	pts := make([]vecmath.Vector, 40)
	for i := range pts {
		pts[i] = vecmath.Vector{float64(i * i % 13), float64(i % 5)}
	}
	plain, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	a, b := plain.Merges(), withCtx.Merges()
	if len(a) != len(b) {
		t.Fatalf("merge counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("merge %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
