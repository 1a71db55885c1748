package cluster

import (
	"bytes"
	"strings"
	"testing"

	"hmeans/internal/vecmath"
)

// validDendrogramJSON serializes a real clustering so the fuzz corpus
// starts from a well-formed artifact and mutates outward.
func validDendrogramJSON(tb testing.TB) string {
	tb.Helper()
	pts := []vecmath.Vector{{0, 0}, {0, 1}, {4, 4}, {4, 5}, {9, 0}}
	d, err := NewDendrogramOpts(pts, vecmath.Euclidean, Complete, Options{})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// FuzzLoadDendrogram asserts the dendrogram loader never panics on
// corrupted input, and that anything it accepts is structurally sound:
// cuts at every k succeed, EachCut's walk agrees with them and the
// save/load round trip is stable.
func FuzzLoadDendrogram(f *testing.F) {
	valid := validDendrogramJSON(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])                                                       // truncation
	f.Add(strings.Replace(valid, `"n":5`, `"n":50`, 1))                               // inconsistent leaf count
	f.Add(strings.Replace(valid, `"a":0`, `"a":-1`, 1))                               // invalid id
	f.Add(strings.ReplaceAll(valid, `"distance"`, `"dist"`))                          // dropped field
	f.Add(`{"n":1,"linkage":0,"merges":[]}`)                                          // single leaf
	f.Add(`{"n":2,"merges":[{"A":0,"B":1,"Distance":-1}]}`)                           // negative height
	f.Add(`{"n":3,"merges":[{"A":0,"B":0,"Distance":1},{"A":1,"B":2,"Distance":2}]}`) // self-merge
	f.Add(``)
	f.Add(`null`)
	f.Add(`{"n":9999999,"merges":[]}`)
	f.Add(`{"n":4,"merges":[{"A":2,"B":0,"Distance":1,"Size":9},{"A":3,"B":1,"Distance":1,"Size":0},{"A":5,"B":4,"Distance":2,"Size":1}]}`) // wrong sizes, A > B
	f.Fuzz(func(t *testing.T, input string) {
		d, err := LoadDendrogram(strings.NewReader(input))
		if err != nil {
			return
		}
		if d.Len() < 1 {
			t.Fatalf("accepted dendrogram with %d leaves", d.Len())
		}
		if len(d.Merges()) != d.Len()-1 {
			t.Fatalf("accepted %d merges for %d leaves", len(d.Merges()), d.Len())
		}
		// Every valid cut must work on an accepted artifact; the cap
		// keeps adversarial large-n inputs from stalling the fuzzer.
		maxK := d.Len()
		if maxK > 64 {
			maxK = 64
		}
		for k := 1; k <= maxK; k++ {
			a, err := d.CutK(k)
			if err != nil {
				t.Fatalf("CutK(%d) on accepted dendrogram: %v", k, err)
			}
			if a.K != k {
				t.Fatalf("CutK(%d) produced %d clusters", k, a.K)
			}
		}
		// The walk must agree with CutK on every accepted tree; it
		// derives cluster sizes from the tree, because Merge.Size is
		// not validated.
		assertEachCutMatchesCutK(t, d, 1, maxK)
		d.CutDistance(0)
		// Round trip: what Save emits must load back equal.
		var buf bytes.Buffer
		if err := d.Save(&buf); err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		back, err := LoadDendrogram(&buf)
		if err != nil {
			t.Fatalf("reload of saved dendrogram failed: %v", err)
		}
		if back.Len() != d.Len() || len(back.Merges()) != len(d.Merges()) {
			t.Fatal("round trip changed structure")
		}
		for i, m := range d.Merges() {
			if back.Merges()[i] != m {
				t.Fatalf("round trip changed merge %d", i)
			}
		}
	})
}

// FuzzAgglomerate checks the one agglomeration loop against the O(n³)
// scan on adversarial ties. The first byte picks n (2–40), the second
// the linkage, and each later byte gives four distances from
// {0, 1, 2, 3}, reused cyclically, so nearly every merge height ties.
// The merges must equal the scan's bit for bit.
func FuzzAgglomerate(f *testing.F) {
	f.Add([]byte{3, 0, 0x1b})
	f.Add([]byte{11, 1, 0x00})
	f.Add([]byte{38, 2, 0xe4, 0x1b, 0x55})
	f.Add([]byte{38, 3, 0x93, 0x0f, 0xc6, 0x01})
	// Average linkage where a merged cluster's new distance ties a
	// row's cached minimum at a later slot, so only the offer's
	// tie-break keeps the scan's order.
	f.Add([]byte{38, 2, 0x30})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		n := 2 + int(in[0])%39
		l := allLinkages[int(in[1])%len(allLinkages)]
		digits := in[2:]
		cm := vecmath.NewCondensedMatrix(n)
		for s := range cm.Data() {
			b := digits[(s/4)%len(digits)]
			cm.Data()[s] = float64(b >> (2 * (s % 4)) & 3)
		}
		want := scanMerges(cloneCondensed(cm), l)
		d, err := fromCondensed(cm, l, Options{})
		if err != nil {
			t.Fatalf("n=%d %v: %v", n, l, err)
		}
		if i := sameMerges(d.Merges(), want); i >= 0 {
			t.Fatalf("n=%d %v: merge %d is %+v, scan %+v", n, l, i, d.Merges()[i], want[i])
		}
	})
}
