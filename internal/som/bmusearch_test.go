package som

import (
	"reflect"
	"testing"

	"hmeans/internal/rng"
	"hmeans/internal/vecmath"
)

// corpusMap builds a map with seeded random weights — including
// deliberate exact-duplicate units, the hardest tie-break case — and
// a matching query corpus: random points, exact unit weights, and
// near-misses one ulp-ish away.
func corpusMap(rows, cols, dim int, seed uint64) (*Map, []vecmath.Vector) {
	r := rng.New(seed)
	m := newMap(rows, cols, dim)
	for i := range m.flat {
		m.flat[i] = r.NormFloat64() * 3
	}
	units := rows * cols
	// Duplicate a handful of units verbatim so several queries have
	// genuinely tied BMU distances.
	for i := 0; i < units/8; i++ {
		src, dst := r.Intn(units), r.Intn(units)
		copy(m.flat[dst*dim:(dst+1)*dim], m.flat[src*dim:(src+1)*dim])
	}
	var queries []vecmath.Vector
	for i := 0; i < 200; i++ {
		q := vecmath.NewVector(dim)
		for j := range q {
			q[j] = r.NormFloat64() * 3
		}
		queries = append(queries, q)
	}
	for u := 0; u < units; u += 3 {
		queries = append(queries, m.weights[u].Clone())
		near := m.weights[u].Clone()
		near[0] += 1e-13
		queries = append(queries, near)
	}
	return m, queries
}

// TestPrunedBMUMatchesBrute is the satellite property test: on every
// query of the seeded corpus — random points, exact weight matches,
// near-ulp misses, duplicate units — the pruned search must return
// the same unit AND the same squared distance as the brute scan,
// lowest-index tie-break included.
func TestPrunedBMUMatchesBrute(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, shape := range [][3]int{{9, 7, 5}, {16, 16, 12}, {3, 4, 2}} {
			m, queries := corpusMap(shape[0], shape[1], shape[2], seed)
			m.setBMUSearch(bmuSearchPruned)
			for qi, q := range queries {
				bu, bd := m.bmuBrute(q)
				pu, pd := m.bmuPruned(q)
				if pu != bu || pd != bd {
					t.Fatalf("seed %d shape %v query %d: pruned (%d, %v), brute (%d, %v)",
						seed, shape, qi, pu, pd, bu, bd)
				}
			}
		}
	}
}

// TestTrainedMapIdenticalAcrossExactModes proves the search modes
// interchangeable for the queries production makes: a trained map of
// at least bmuPruneMinUnits units serves placement, HitMap and
// quantization error through the pruned index, and each must equal
// the brute scan's answer exactly.
func TestTrainedMapIdenticalAcrossExactModes(t *testing.T) {
	samples := benchSamples(160, 8)
	for seed := uint64(1); seed <= 5; seed++ {
		m, err := Train(Config{Rows: 12, Cols: 10, Steps: 12000, Seed: seed}, samples)
		if err != nil {
			t.Fatal(err)
		}
		if m.index == nil {
			t.Fatalf("seed %d: trained %d-unit map has no pruned index", seed, len(m.weights))
		}
		type answers struct {
			places []vecmath.Vector
			hits   [][]int
			qe     float64
		}
		query := func(mode bmuSearch) answers {
			m.setBMUSearch(mode)
			return answers{m.PlacementsP(samples, 2), m.HitMap(samples), m.QuantizationError(samples)}
		}
		pruned, brute := query(bmuSearchPruned), query(bmuSearchBrute)
		if !reflect.DeepEqual(pruned.places, brute.places) {
			t.Fatalf("seed %d: pruned placements differ from brute", seed)
		}
		if !reflect.DeepEqual(pruned.hits, brute.hits) {
			t.Fatalf("seed %d: pruned hit map %v, brute %v", seed, pruned.hits, brute.hits)
		}
		if pruned.qe != brute.qe {
			t.Fatalf("seed %d: pruned quantization error %v, brute %v", seed, pruned.qe, brute.qe)
		}
	}
}

// TestSetBMUSearchAutoPolicy pins the auto threshold: small grids
// stay brute (no index), large grids get the pruned index.
func TestSetBMUSearchAutoPolicy(t *testing.T) {
	small := newMap(5, 4, 3)
	small.setBMUSearch(bmuSearchAuto)
	if small.index != nil {
		t.Fatal("small grid built the pruned index, want the brute scan")
	}
	big := newMap(8, 8, 3)
	big.setBMUSearch(bmuSearchAuto)
	if big.index == nil {
		t.Fatal("big grid has no pruned index, want the pruned search")
	}
}
