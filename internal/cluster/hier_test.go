package cluster

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// fourPoints is a tiny 1-D instance with an obvious structure:
// {0, 1} and {10, 12} are two clear clusters.
func fourPoints() []vecmath.Vector {
	return []vecmath.Vector{{0}, {1}, {10}, {12}}
}

func TestDendrogramBasics(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 4 {
		t.Fatalf("Len = %d, want 4", d.Len())
	}
	if len(d.Merges()) != 3 {
		t.Fatalf("merges = %d, want 3", len(d.Merges()))
	}
	// First merge must be {0,1} at distance 1 (closest pair).
	m0 := d.Merges()[0]
	if m0.A != 0 || m0.B != 1 || m0.Distance != 1 || m0.Size != 2 {
		t.Fatalf("first merge = %+v, want {0 1 1 2}", m0)
	}
	// Second: {10,12} at distance 2.
	m1 := d.Merges()[1]
	if m1.A != 2 || m1.B != 3 || m1.Distance != 2 {
		t.Fatalf("second merge = %+v", m1)
	}
	// Final complete-linkage merge: furthest pair is |0-12| = 12.
	m2 := d.Merges()[2]
	if m2.Distance != 12 || m2.Size != 4 {
		t.Fatalf("final merge = %+v, want distance 12 size 4", m2)
	}
}

func TestSingleLinkageFinalMerge(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Single, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Single linkage: closest pair across {0,1} and {10,12} is |1-10| = 9.
	if got := d.Merges()[2].Distance; got != 9 {
		t.Fatalf("single-linkage final distance = %v, want 9", got)
	}
}

func TestAverageLinkageFinalMerge(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Average, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// UPGMA: mean of {10,12,9,11} = 10.5.
	if got := d.Merges()[2].Distance; !almostEq(got, 10.5, 1e-9) {
		t.Fatalf("average-linkage final distance = %v, want 10.5", got)
	}
}

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestErrors(t *testing.T) {
	if _, err := NewDendrogramOpts(nil, vecmath.Euclidean, Complete, Options{}); !errors.Is(err, ErrNoPoints) {
		t.Error("empty input accepted")
	}
	if _, err := fromCondensed(condensedOf(2, -1), Complete, Options{}); err == nil {
		t.Error("negative distances accepted")
	}
}

// TestFromCondensedValidation: the validation pass rejects a
// negative, NaN or +Inf distance, for both the plain and the
// Ward-squaring linkages, with an error naming the first invalid entry
// in row order; and it returns the context's error once the context
// has fired.
func TestFromCondensedValidation(t *testing.T) {
	for _, tc := range []struct {
		n       int
		entries []float64
		want    string
	}{
		{3, []float64{0.5, 1, -1}, "(1,2)"},
		{4, []float64{1, 1, 1, 1, math.NaN(), 1}, "(1,3)"},
		{3, []float64{1, -2, math.NaN()}, "(0,2)"},
		// Three points, one with a +Inf coordinate.
		{3, []float64{1, math.Inf(1), math.Inf(1)}, "(0,2)"},
	} {
		for _, l := range []Linkage{Complete, Ward} {
			_, err := fromCondensed(condensedOf(tc.n, tc.entries...), l, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("%v %v: error %v, want one naming %s", l, tc.entries, err, tc.want)
			}
		}
	}
	// Ward squares its distances, so one whose square overflows is
	// invalid there and valid elsewhere.
	if _, err := fromCondensed(condensedOf(3, 1, 1e200, 2), Ward, Options{}); err == nil || !strings.Contains(err.Error(), "(0,2)") {
		t.Fatalf("Ward with an overflowing square: error %v, want one naming (0,2)", err)
	}
	if _, err := fromCondensed(condensedOf(3, 1, 1e200, 2), Complete, Options{}); err != nil {
		t.Fatalf("Complete with a large distance: %v", err)
	}
	// A Ward update can still overflow: after (0,1) merges, the
	// squared distances 1.69e308 to point 2 sum past MaxFloat64, and
	// no finite pair is left to merge.
	if _, err := fromCondensed(condensedOf(3, 1, 1.3e154, 1.3e154), Ward, Options{}); err == nil || !strings.Contains(err.Error(), "no finite distance") {
		t.Fatalf("Ward update overflow: error %v, want no finite distance", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fromCondensed(condensedOf(3, 1, 2, 3), Average, Options{Ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled validation: error %v, want context.Canceled", err)
	}
}

func TestSinglePoint(t *testing.T) {
	d, err := NewDendrogramOpts([]vecmath.Vector{{5, 5}}, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 || len(d.Merges()) != 0 {
		t.Fatalf("single point: Len=%d merges=%d", d.Len(), len(d.Merges()))
	}
	a, err := d.CutK(1)
	if err != nil || a.K != 1 || a.Labels[0] != 0 {
		t.Fatalf("CutK(1) = %+v, %v", a, err)
	}
}

func TestCutK(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.CutK(2)
	if err != nil {
		t.Fatal(err)
	}
	if a2.K != 2 {
		t.Fatalf("K = %d, want 2", a2.K)
	}
	// Canonical labels: leaf 0's cluster is 0.
	want := []int{0, 0, 1, 1}
	for i, w := range want {
		if a2.Labels[i] != w {
			t.Fatalf("CutK(2) labels = %v, want %v", a2.Labels, want)
		}
	}
	a1, _ := d.CutK(1)
	if a1.K != 1 {
		t.Fatal("CutK(1) should be a single cluster")
	}
	a4, _ := d.CutK(4)
	if a4.K != 4 {
		t.Fatal("CutK(n) should be all singletons")
	}
	for i, l := range a4.Labels {
		if l != i {
			t.Fatalf("singleton labels not canonical: %v", a4.Labels)
		}
	}
	if _, err := d.CutK(0); err == nil {
		t.Error("CutK(0) accepted")
	}
	if _, err := d.CutK(5); err == nil {
		t.Error("CutK(n+1) accepted")
	}
}

func TestCutDistance(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		dist  float64
		wantK int
	}{
		{0.5, 4}, // below every merge
		{1, 3},   // exactly the first merge height: merged
		{1.5, 3}, //
		{2, 2},   //
		{5, 2},   // between 2 and 12
		{12, 1},  // everything
		{99, 1},  //
	}
	for _, c := range cases {
		if got := d.CutDistance(c.dist).K; got != c.wantK {
			t.Errorf("CutDistance(%v).K = %d, want %d", c.dist, got, c.wantK)
		}
		if got := d.KAtDistance(c.dist); got != c.wantK {
			t.Errorf("KAtDistance(%v) = %d, want %d", c.dist, got, c.wantK)
		}
	}
}

func TestEachCutRange(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ks []int
	err = d.EachCut(2, 8, func(a Assignment) error {
		if len(ks) > 0 && a.K != ks[len(ks)-1]+1 {
			t.Fatalf("cut K=%d after K=%d, want increasing k", a.K, ks[len(ks)-1])
		}
		ks = append(ks, a.K)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only k=2,3,4 are valid for 4 points.
	if len(ks) != 3 || ks[0] != 2 {
		t.Fatalf("EachCut(2, 8) visited k=%v, want [2 3 4]", ks)
	}
	if err := d.EachCut(5, 2, func(Assignment) error { return nil }); err == nil {
		t.Error("inverted range accepted")
	}
	stop := errors.New("stop")
	calls := 0
	if err := d.EachCut(1, 4, func(Assignment) error { calls++; return stop }); !errors.Is(err, stop) || calls != 1 {
		t.Errorf("EachCut returned %v after %d calls, want fn's error after 1", err, calls)
	}
}

func TestDistanceForK(t *testing.T) {
	d, err := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		dist, _, _, ok := d.DistanceForK(k)
		if !ok {
			t.Fatalf("DistanceForK(%d) not achievable", k)
		}
		if got := d.KAtDistance(dist); got != k {
			t.Fatalf("cut at DistanceForK(%d)=%v yields %d clusters", k, dist, got)
		}
	}
	if _, _, _, ok := d.DistanceForK(0); ok {
		t.Error("DistanceForK(0) should fail")
	}
	if _, _, _, ok := d.DistanceForK(5); ok {
		t.Error("DistanceForK(n+1) should fail")
	}
}

func TestAssignmentMembersAndSizes(t *testing.T) {
	d, _ := NewDendrogramOpts(fourPoints(), vecmath.Euclidean, Complete, Options{})
	a, _ := d.CutK(2)
	mem := a.Members()
	if len(mem) != 2 || len(mem[0]) != 2 || len(mem[1]) != 2 {
		t.Fatalf("Members = %v", mem)
	}
	sizes := a.Sizes()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Fatalf("Sizes = %v", sizes)
	}
}

func randomPoints(n, dim int, seed uint64) []vecmath.Vector {
	r := rng.New(seed)
	pts := make([]vecmath.Vector, n)
	for i := range pts {
		pts[i] = make(vecmath.Vector, dim)
		for j := range pts[i] {
			pts[i][j] = r.NormFloat64() * 5
		}
	}
	return pts
}

// Property: merge heights are non-decreasing for the metric linkages.
func TestMergeMonotonicity(t *testing.T) {
	for _, l := range []Linkage{Complete, Single, Average, Ward} {
		l := l
		f := func(seed uint64) bool {
			pts := randomPoints(int(seed%10)+3, 3, seed)
			d, err := NewDendrogramOpts(pts, vecmath.Euclidean, l, Options{})
			if err != nil {
				return false
			}
			hs := d.MergeDistances()
			for i := 1; i < len(hs); i++ {
				if hs[i] < hs[i-1]-1e-9 {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("linkage %v: %v", l, err)
		}
	}
}

// Property: CutK(k) always yields exactly k clusters with canonical
// labels and all leaves assigned.
func TestCutKProperties(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		n := int(seed%12) + 2
		pts := randomPoints(n, 2, seed^0x5a5a)
		d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
		if err != nil {
			return false
		}
		k := int(kRaw)%n + 1
		a, err := d.CutK(k)
		if err != nil || a.K != k || len(a.Labels) != n {
			return false
		}
		// Canonical labelling: first occurrence of each label is in
		// increasing order.
		seen := -1
		for _, l := range a.Labels {
			if l > seen+1 {
				return false
			}
			if l == seen+1 {
				seen = l
			}
		}
		return seen == k-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: cutting at a distance between merge heights m and m+1
// yields the same assignment as CutK with the corresponding k.
func TestCutDistanceConsistentWithCutK(t *testing.T) {
	f := func(seed uint64) bool {
		n := int(seed%8) + 3
		pts := randomPoints(n, 2, seed^0xfeed)
		d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
		if err != nil {
			return false
		}
		for k := 1; k <= n; k++ {
			dist, _, _, ok := d.DistanceForK(k)
			if !ok {
				continue // tied heights: unreachable by horizontal cut
			}
			byDist := d.CutDistance(dist)
			byK, err := d.CutK(k)
			if err != nil || byDist.K != k {
				return false
			}
			for i := range byK.Labels {
				if byK.Labels[i] != byDist.Labels[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: single-linkage merge heights are <= complete-linkage
// heights at every step (nested bound).
func TestSingleBelowComplete(t *testing.T) {
	f := func(seed uint64) bool {
		pts := randomPoints(int(seed%8)+3, 3, seed^0xbeef)
		ds, err1 := NewDendrogramOpts(pts, vecmath.Euclidean, Single, Options{})
		dc, err2 := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		hs, hc := ds.MergeDistances(), dc.MergeDistances()
		// Compare the sorted sequences (the merge orders may differ).
		for i := range hs {
			if hs[i] > hc[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkageString(t *testing.T) {
	if Complete.String() != "complete" || Single.String() != "single" ||
		Average.String() != "average" || Ward.String() != "ward" || Linkage(9).String() != "unknown" {
		t.Fatal("Linkage.String names wrong")
	}
}

func TestWardPrefersCompactMerges(t *testing.T) {
	// Ward on two tight pairs + one outlier: the pairs merge first.
	pts := []vecmath.Vector{{0, 0}, {0.1, 0}, {5, 5}, {5.1, 5}, {20, 20}}
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Ward, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := d.Merges()
	first := map[int]bool{m[0].A: true, m[0].B: true}
	second := map[int]bool{m[1].A: true, m[1].B: true}
	if !(first[0] && first[1] || first[2] && first[3]) {
		t.Fatalf("first Ward merge = %+v, want a tight pair", m[0])
	}
	if !(second[0] && second[1] || second[2] && second[3]) {
		t.Fatalf("second Ward merge = %+v, want the other tight pair", m[1])
	}
}
