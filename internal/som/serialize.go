package som

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// mapJSON is the serialized form of a trained map.
type mapJSON struct {
	Rows    int         `json:"rows"`
	Cols    int         `json:"cols"`
	Dim     int         `json:"dim"`
	Weights [][]float64 `json:"weights"`
}

// Save writes the trained map as JSON. A reference clustering run can
// train once, publish the map, and let every vendor place new
// workloads on the published geometry — the paper's "a reference
// cluster distribution on a reference machine should be determined
// first" requirement made operational.
func (m *Map) Save(w io.Writer) error {
	out := mapJSON{Rows: m.rows, Cols: m.cols, Dim: m.dim, Weights: make([][]float64, len(m.weights))}
	for i, wt := range m.weights {
		out.Weights[i] = wt
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// Load reads a map saved with Save. Its weights are not validated, so
// unlike a trained map it has no pruned search index: every BMU query
// on it runs the brute scan.
func Load(r io.Reader) (*Map, error) {
	var in mapJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("som: decoding map: %w", err)
	}
	if in.Rows <= 0 || in.Cols <= 0 || in.Dim <= 0 {
		return nil, errors.New("som: invalid saved map shape")
	}
	if len(in.Weights) != in.Rows*in.Cols {
		return nil, fmt.Errorf("som: saved map has %d weights for a %dx%d grid",
			len(in.Weights), in.Rows, in.Cols)
	}
	m := newMap(in.Rows, in.Cols, in.Dim)
	for i, wt := range in.Weights {
		if len(wt) != in.Dim {
			return nil, fmt.Errorf("som: weight %d has dim %d, want %d", i, len(wt), in.Dim)
		}
		copy(m.weights[i], wt)
	}
	return m, nil
}

// Equal reports whether two maps have identical shape and weights —
// a testing and cache-validation helper.
func (m *Map) Equal(other *Map) bool {
	if other == nil || m.rows != other.rows || m.cols != other.cols || m.dim != other.dim {
		return false
	}
	for i := range m.weights {
		for j := range m.weights[i] {
			if m.weights[i][j] != other.weights[i][j] {
				return false
			}
		}
	}
	return true
}

// ComponentPlane returns the values of one input feature across the
// grid (unit (r,c) → weight[feature]) — the standard SOM diagnostic
// for seeing which feature drives which map region.
func (m *Map) ComponentPlane(feature int) ([][]float64, error) {
	if feature < 0 || feature >= m.dim {
		return nil, fmt.Errorf("som: feature %d out of range [0,%d)", feature, m.dim)
	}
	out := make([][]float64, m.rows)
	for r := range out {
		out[r] = make([]float64, m.cols)
		for c := range out[r] {
			out[r][c] = m.Weight(r, c)[feature]
		}
	}
	return out, nil
}
