package cluster

import (
	"testing"

	"hmeans/internal/obs"
	"hmeans/internal/vecmath"
)

func obsPoints() []vecmath.Vector {
	return []vecmath.Vector{{0, 0}, {0, 1}, {4, 0}, {4, 1}, {10, 10}}
}

// TestLinkageSpanAndHistogram checks the default instrumentation of a
// clustering run: one cluster.linkage span, every merge height folded
// into the distance histogram, and — by default — no per-merge events.
func TestLinkageSpanAndHistogram(t *testing.T) {
	col := obs.NewCollector()
	o := obs.New(col)
	d, err := NewDendrogramOpts(obsPoints(), vecmath.Euclidean, Complete, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	tr := col.Trace()
	var spans, mergeEvents int
	for _, s := range tr.Spans {
		if s.Name == "cluster.linkage" {
			spans++
		}
	}
	for _, e := range tr.Events {
		if e.Name == "cluster.merge" {
			mergeEvents++
		}
	}
	if spans != 1 {
		t.Fatalf("cluster.linkage spans = %d", spans)
	}
	if mergeEvents != 0 {
		t.Fatalf("merge events leaked without detail: %d", mergeEvents)
	}
	h := o.Metrics().Histogram("cluster.merge_distance")
	if int(h.Count()) != len(d.Merges()) {
		t.Fatalf("histogram count = %d, merges = %d", h.Count(), len(d.Merges()))
	}
	var sum float64
	for _, m := range d.Merges() {
		sum += m.Distance
	}
	if got := h.Sum(); got < sum*0.999 || got > sum*1.001 {
		t.Fatalf("histogram sum = %v, merge-height sum = %v", got, sum)
	}
}

// TestMergeEventsGated checks that the observer detail toggle turns
// on exactly one event per merge, carrying the same heights as the
// dendrogram.
func TestMergeEventsGated(t *testing.T) {
	col := obs.NewCollector()
	o := obs.New(col)
	o.SetDetail(true)
	d, err := NewDendrogramOpts(obsPoints(), vecmath.Euclidean, Complete, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	var heights []float64
	for _, e := range col.Trace().Events {
		if e.Name != "cluster.merge" {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key == "distance" {
				heights = append(heights, a.Val.(float64))
			}
		}
	}
	merges := d.Merges()
	if len(heights) != len(merges) {
		t.Fatalf("merge events = %d, merges = %d", len(heights), len(merges))
	}
	for i, m := range merges {
		if heights[i] != m.Distance {
			t.Fatalf("event %d height %v != merge height %v", i, heights[i], m.Distance)
		}
	}
}

// TestInstrumentationPreservesMerges pins determinism: the merge
// sequence with a live observer (detail on) matches
// the bare serial run exactly.
func TestInstrumentationPreservesMerges(t *testing.T) {
	bare, err := NewDendrogramOpts(obsPoints(), vecmath.Euclidean, Average, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.NewCollector())
	o.SetDetail(true)
	traced, err := NewDendrogramOpts(obsPoints(), vecmath.Euclidean, Average, Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	bm, tm := bare.Merges(), traced.Merges()
	if len(bm) != len(tm) {
		t.Fatalf("merge counts differ: %d vs %d", len(bm), len(tm))
	}
	for i := range bm {
		if bm[i] != tm[i] {
			t.Fatalf("merge %d differs: %+v vs %+v", i, bm[i], tm[i])
		}
	}
}
