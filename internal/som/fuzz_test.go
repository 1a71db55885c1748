package som

import (
	"bytes"
	"strings"
	"testing"

	"hmeans/internal/vecmath"
)

// validMapJSON serializes a genuinely trained map so the corpus
// mutates outward from a realistic artifact.
func validMapJSON(tb testing.TB) string {
	tb.Helper()
	samples := []vecmath.Vector{{0, 0, 1}, {1, 0, 0}, {0, 1, 0}, {1, 1, 1}}
	m, err := Train(Config{Rows: 3, Cols: 3, Seed: 7}, samples)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// FuzzLoadMap asserts the SOM loader never panics on corrupted input
// and that every accepted map is internally consistent: usable for
// placement and stable under a save/load round trip.
func FuzzLoadMap(f *testing.F) {
	valid := validMapJSON(f)
	f.Add(valid)
	f.Add(valid[:len(valid)*2/3])                            // truncation
	f.Add(strings.Replace(valid, `"rows":3`, `"rows":9`, 1)) // shape mismatch
	f.Add(strings.Replace(valid, `"dim":3`, `"dim":0`, 1))   // zero dim
	f.Add(`{"rows":1,"cols":1,"dim":1,"weights":[[0.5]]}`)
	f.Add(`{"rows":-2,"cols":4,"dim":1,"weights":[]}`)
	f.Add(`{"rows":2,"cols":2,"dim":2,"weights":[[1,2],[3],[5,6],[7,8]]}`) // ragged
	f.Add(``)
	f.Add(`null`)
	f.Add(`{"rows":1000000,"cols":1000000,"dim":3,"weights":[]}`)
	f.Fuzz(func(t *testing.T, input string) {
		m, err := Load(strings.NewReader(input))
		if err != nil {
			return
		}
		if m.Rows() < 1 || m.Cols() < 1 {
			t.Fatalf("accepted map with shape %dx%d", m.Rows(), m.Cols())
		}
		// An accepted map must be usable: place a vector of the map's
		// dimension without panicking.
		probe := vecmath.NewVector(m.Dim())
		pos := m.Position(probe)
		if len(pos) != 2 {
			t.Fatalf("position has %d coordinates", len(pos))
		}
		r, c := m.BMU(probe)
		if r < 0 || r >= m.Rows() || c < 0 || c >= m.Cols() {
			t.Fatalf("BMU (%d,%d) outside %dx%d grid", r, c, m.Rows(), m.Cols())
		}
		// Round trip: save and reload must preserve the weights.
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("re-save failed: %v", err)
		}
		back, err := Load(&buf)
		if err != nil {
			t.Fatalf("reload of saved map failed: %v", err)
		}
		if !m.Equal(back) {
			t.Fatal("round trip changed the map")
		}
	})
}
