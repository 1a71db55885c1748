package cluster

import (
	"bytes"
	"strings"
	"testing"

	"hmeans/internal/vecmath"
)

func TestDendrogramSaveLoadRoundTrip(t *testing.T) {
	pts := randomPoints(10, 2, 77)
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Average, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDendrogram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != d.Len() || back.Linkage() != d.Linkage() {
		t.Fatalf("shape changed: %d/%v vs %d/%v", back.Len(), back.Linkage(), d.Len(), d.Linkage())
	}
	// Every cut must be identical.
	for k := 1; k <= d.Len(); k++ {
		a1, err := d.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		a2, err := back.CutK(k)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a1.Labels {
			if a1.Labels[i] != a2.Labels[i] {
				t.Fatalf("cut k=%d differs after round trip", k)
			}
		}
	}
}

func TestLoadDendrogramRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"n":0,"merges":[]}`,
		`{"n":3,"merges":[]}`, // wrong merge count
		`{"n":2,"merges":[{"A":0,"B":0,"Distance":1,"Size":2}]}`,                                     // A == B
		`{"n":2,"merges":[{"A":0,"B":5,"Distance":1,"Size":2}]}`,                                     // id out of range
		`{"n":2,"merges":[{"A":0,"B":1,"Distance":-1,"Size":2}]}`,                                    // negative distance
		`{"n":3,"merges":[{"A":0,"B":1,"Distance":2,"Size":2},{"A":0,"B":2,"Distance":3,"Size":3}]}`, // id 0 reused
		`{"n":3,"merges":[{"A":0,"B":1,"Distance":2,"Size":2},{"A":3,"B":2,"Distance":1,"Size":3}]}`, // non-monotone
	}
	for _, c := range cases {
		if _, err := LoadDendrogram(strings.NewReader(c)); err == nil {
			t.Errorf("LoadDendrogram accepted %q", c)
		}
	}
}

func TestLoadDendrogramSingleLeaf(t *testing.T) {
	d, err := LoadDendrogram(strings.NewReader(`{"n":1,"merges":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.CutK(1)
	if err != nil || a.K != 1 {
		t.Fatalf("single-leaf cut = %+v, %v", a, err)
	}
}
