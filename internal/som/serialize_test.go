package som

import (
	"bytes"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	samples, _ := twoBlobs(8, 4, 6, 21)
	m, err := Train(Config{Rows: 4, Cols: 5, Steps: 2000, Seed: 13}, samples)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(back) {
		t.Fatal("round-tripped map differs")
	}
	// Placements must be identical through the round trip.
	for _, s := range samples {
		r1, c1 := m.BMU(s)
		r2, c2 := back.BMU(s)
		if r1 != r2 || c1 != c2 {
			t.Fatal("BMU changed through serialization")
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := []string{
		"not json",
		`{"rows":0,"cols":3,"dim":2,"weights":[]}`,
		`{"rows":2,"cols":2,"dim":2,"weights":[[1,2]]}`,
		`{"rows":1,"cols":1,"dim":2,"weights":[[1]]}`,
	}
	for _, c := range cases {
		if _, err := Load(strings.NewReader(c)); err == nil {
			t.Errorf("Load accepted %q", c)
		}
	}
}

func TestEqual(t *testing.T) {
	samples, _ := twoBlobs(5, 3, 5, 27)
	a, _ := Train(Config{Rows: 3, Cols: 3, Steps: 500, Seed: 1}, samples)
	b, _ := Train(Config{Rows: 3, Cols: 3, Steps: 500, Seed: 1}, samples)
	c, _ := Train(Config{Rows: 3, Cols: 3, Steps: 500, Seed: 2}, samples)
	if !a.Equal(b) {
		t.Error("same-seed maps differ")
	}
	if a.Equal(c) {
		t.Error("different-seed maps equal")
	}
	if a.Equal(nil) {
		t.Error("nil map equal")
	}
	d, _ := Train(Config{Rows: 2, Cols: 3, Steps: 500, Seed: 1}, samples)
	if a.Equal(d) {
		t.Error("different-shape maps equal")
	}
}

func TestComponentPlane(t *testing.T) {
	samples, _ := twoBlobs(6, 3, 5, 31)
	m, err := Train(Config{Rows: 3, Cols: 4, Steps: 1000, Seed: 3}, samples)
	if err != nil {
		t.Fatal(err)
	}
	plane, err := m.ComponentPlane(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plane) != 3 || len(plane[0]) != 4 {
		t.Fatalf("plane shape %dx%d", len(plane), len(plane[0]))
	}
	for r := range plane {
		for c := range plane[r] {
			if plane[r][c] != m.Weight(r, c)[1] {
				t.Fatal("plane values wrong")
			}
		}
	}
	if _, err := m.ComponentPlane(-1); err == nil {
		t.Error("negative feature accepted")
	}
	if _, err := m.ComponentPlane(3); err == nil {
		t.Error("out-of-range feature accepted")
	}
}

func TestSoftPositionStability(t *testing.T) {
	samples, _ := twoBlobs(8, 4, 8, 35)
	m, err := Train(Config{Rows: 5, Cols: 5, Steps: 3000, Seed: 2}, samples)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		p := m.SoftPosition(s)
		if len(p) != 2 {
			t.Fatal("soft position not 2-D")
		}
		if p[0] < 0 || p[0] > 4 || p[1] < 0 || p[1] > 4 {
			t.Fatalf("soft position %v outside the grid", p)
		}
		// Soft position of a sample that exactly matches a weight is
		// that unit's location.
		r, c := m.BMU(s)
		hard := m.Weight(r, c)
		exact := m.SoftPosition(hard)
		er, ec := m.BMU(hard)
		if exact[0] != float64(er) || exact[1] != float64(ec) {
			t.Fatalf("soft position of an exact weight = %v, BMU = (%d,%d)", exact, er, ec)
		}
	}
}

func TestSoftPlacementsMatchesPerSample(t *testing.T) {
	samples, _ := twoBlobs(5, 3, 5, 37)
	m, err := Train(Config{Rows: 4, Cols: 4, Steps: 800, Seed: 4}, samples)
	if err != nil {
		t.Fatal(err)
	}
	batch := m.SoftPlacements(samples)
	for i, s := range samples {
		p := m.SoftPosition(s)
		if p[0] != batch[i][0] || p[1] != batch[i][1] {
			t.Fatal("SoftPlacements inconsistent with SoftPosition")
		}
	}
}

func TestSoftPositionDimMismatchPanics(t *testing.T) {
	samples, _ := twoBlobs(5, 3, 5, 39)
	m, _ := Train(Config{Rows: 3, Cols: 3, Steps: 300, Seed: 5}, samples)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	m.SoftPosition([]float64{1})
}

func TestGridFor(t *testing.T) {
	cases := []struct{ n, wantUnitsMin, wantUnitsMax int }{
		{1, 4, 9},
		{13, 18, 24},
		{100, 50, 60},
	}
	for _, c := range cases {
		r, cl := GridFor(c.n)
		units := r * cl
		if units < c.wantUnitsMin || units > c.wantUnitsMax {
			t.Errorf("GridFor(%d) = %dx%d (%d units), want %d..%d",
				c.n, r, cl, units, c.wantUnitsMin, c.wantUnitsMax)
		}
		if r < 2 || cl < 2 {
			t.Errorf("GridFor(%d) = %dx%d: degenerate axis", c.n, r, cl)
		}
	}
	if r, c := GridFor(0); r < 2 || c < 2 {
		t.Error("GridFor(0) degenerate")
	}
}
