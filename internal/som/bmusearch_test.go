package som

import (
	"context"
	"math"
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
// near-ulp misses, duplicate units — and on queries whose distances
// all overflow or are NaN, the pruned search must return the same
// unit AND the same squared distance as the brute scan, lowest-index
// tie-break included.
func TestPrunedBMUMatchesBrute(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, shape := range [][3]int{{9, 7, 5}, {16, 16, 12}, {3, 4, 2}} {
			m, queries := corpusMap(shape[0], shape[1], shape[2], seed)
			m.index = m.buildBMUIndex()
			for _, v := range []float64{1e200, -1e200, math.Inf(1), math.NaN()} {
				q := vecmath.NewVector(shape[2])
				q[0] = v
				queries = append(queries, q)
			}
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

// TestPrunedBMUAllDistancesOverflow: a query of finite norm whose
// distance to every unit overflows leaves the pruned search without a
// candidate; it must still answer the brute scan's unit 0.
func TestPrunedBMUAllDistancesOverflow(t *testing.T) {
	m := newMap(2, 2, 2)
	for _, w := range m.weights {
		w[0] = -1e154
	}
	m.index = m.buildBMUIndex()
	q := vecmath.Vector{1.3e154, 0}
	bu, bd := m.bmuBrute(q)
	if pu, pd := m.bmuPruned(q); pu != bu || pd != bd {
		t.Fatalf("pruned (%d, %v), brute (%d, %v)", pu, pd, bu, bd)
	}
}

// seededDims are the dimensions the seeded search is checked at on
// each test's own grid: below, at and just past one bmuBlock, a
// multiple of it (suite-500's 40), and the case study's 194 counters,
// so whole blocks, a tail alone and both together are covered.
var seededDims = []int{1, 7, 8, 9, 40, 194}

// seededGrids are the grids the seeded search is also checked on, at
// seededGridDims: 16, 9, 10, 35, 20, 21, 30 and 15 units, every unit
// count mod 8, so that the AVX2 search's last group of eight overlaps
// the one before it by every amount (4 × 4 by none); 4, 5, 6 and 7
// units, where its one group's lanes 4–7 overlap its lanes 0–3 by
// every amount; and 1 × 3, too few units for the kernel, which takes
// the Go loop. The dims are the kernel's smallest, one past it, and
// multiples of 4 below and at two bmuBlocks.
var (
	seededGrids = [][2]int{
		{4, 4}, {3, 3}, {2, 5}, {7, 5}, {5, 4}, {3, 7}, {6, 5}, {3, 5},
		{2, 2}, {1, 5}, {2, 3}, {1, 7}, {1, 3},
	}
	seededGridDims = []int{4, 5, 12, 16}
)

// seededShapes returns every (rows, cols, dim) a seeded search test
// runs on: its own rows × cols grid at seededDims, then seededGrids at
// seededGridDims.
func seededShapes(rows, cols int) [][3]int {
	var shapes [][3]int
	for _, dim := range seededDims {
		shapes = append(shapes, [3]int{rows, cols, dim})
	}
	for _, g := range seededGrids {
		for _, dim := range seededGridDims {
			shapes = append(shapes, [3]int{g[0], g[1], dim})
		}
	}
	return shapes
}

// seededCoords is the seeded search's coordinate count, found without
// it: the guess's dim, then each other unit's coordinates up to the
// first multiple of bmuBlock, at most dim − dim mod 4, at which its
// running sum exceeds the bound, or dim if none does. The bound is the
// best distance over the guess and the units of the groups of group
// units before the unit's own: 1 for the Go loop, 8 for the AVX2
// search.
func seededCoords(m *Map, x vecmath.Vector, guess, group int) int {
	square := func(v, j int) float64 {
		d := x[j] - m.flat[v*m.dim+j]
		return d * d
	}
	sum := func(v int) float64 {
		s := 0.0
		for j := range m.dim {
			s += square(v, j)
		}
		return s
	}
	best := sum(guess)
	coords, bound := m.dim, best
	for v := range m.weights {
		if v%group == 0 {
			bound = best
		}
		if v != guess {
			s, n := 0.0, m.dim
			for j := range m.dim &^ 3 {
				s += square(v, j)
				if (j+1)%bmuBlock == 0 && s > bound {
					n = j + 1
					break
				}
			}
			coords += n
		}
		if s := sum(v); s < best {
			best = s
		}
	}
	return coords
}

// TestSeededBMUMatchesBrute: from every possible guess, so from every
// lane of the AVX2 search's groups, the seeded search returns
// bmuBrute's unit on every query of the corpus — random points, exact
// weight matches, near-ulp misses and duplicate units — and counts
// seededCoords's coordinates, with groups of eight units where the
// AVX2 search runs. It runs through each kernel.
func TestSeededBMUMatchesBrute(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, shape := range seededShapes(5, 4) {
			dim := shape[2]
			for seed := uint64(1); seed <= 2; seed++ {
				m, queries := corpusMap(shape[0], shape[1], dim, seed)
				units := len(m.weights)
				group := 1
				if useAVX2 && dim >= 4 && units >= 4 {
					group = 8
				}
				for g := 0; g < units; g++ {
					for qi, q := range queries {
						want, _ := m.bmuBrute(q)
						got, coords := m.bmuSeeded(q, g)
						if wantCoords := seededCoords(m, q, g, group); got != want || coords != wantCoords {
							t.Fatalf("%d×%d grid, dim %d, seed %d, guess %d, query %d: seeded unit %d after %d coordinates, brute %d, and %d coordinates in groups of %d",
								shape[0], shape[1], dim, seed, g, qi, got, coords, want, wantCoords, group)
						}
					}
				}
			}
		}
	})
}

// TestSeededBMUPlantedDuplicates plants two copies of the guess's
// weights, one at a lower index and one at a higher, so the guess
// ties the query's best distance exactly. The brute scan returns the
// lowest copy (or an earlier duplicate the corpus planted); the
// seeded search must too, from the guess and from
// either copy, which needs the abandon test to be strict and an equal
// sum from a lower index to win. It runs through each kernel.
func TestSeededBMUPlantedDuplicates(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		for _, shape := range seededShapes(6, 5) {
			rows, cols, dim := shape[0], shape[1], shape[2]
			base, queries := corpusMap(rows, cols, dim, uint64(dim))
			units := len(base.weights)
			for g := 1; g < units-1; g++ {
				m := newMap(base.rows, base.cols, dim)
				copy(m.flat, base.flat)
				lo, hi := g/2, (g+units)/2
				copy(m.weights[lo], m.weights[g])
				copy(m.weights[hi], m.weights[g])
				near := m.weights[g].Clone()
				near[dim-1] += 1e-13
				qs := append([]vecmath.Vector{m.weights[g].Clone(), near}, queries[:20]...)
				for qi, q := range qs {
					want, d := m.bmuBrute(q)
					if qi == 0 && (want > lo || d != 0) {
						t.Fatalf("%d×%d grid, dim %d: brute scan picked %d at %v for a weight planted at %d, %d and %d", rows, cols, dim, want, d, lo, g, hi)
					}
					for _, guess := range []int{g, lo, hi, 0, units - 1} {
						if got, _ := m.bmuSeeded(q, guess); got != want {
							t.Fatalf("%d×%d grid, dim %d, copies %d<%d<%d, guess %d, query %d: seeded %d, brute %d",
								rows, cols, dim, lo, g, hi, guess, qi, got, want)
						}
					}
				}
			}
		}
	})
}

// TestSeededBMUNonFinite: a query whose distance to the guess
// overflows or is NaN gives no bound; the seeded search then returns
// bmuBrute's unit, whichever unit the guess is. With a finite query
// and NaN, +Inf and −Inf weights in units other than the guess, whose
// sums are NaN or +Inf, it returns bmuBrute's unit too. It runs
// through each kernel.
func TestSeededBMUNonFinite(t *testing.T) {
	eachKernel(t, func(t *testing.T) {
		m, _ := corpusMap(4, 4, 9, 3)
		for _, q := range []vecmath.Vector{
			{1e200, 0, 0, 0, 0, 0, 0, 0, 0},
			{math.NaN(), 0, 0, 0, 0, 0, 0, 0, 0},
			{math.Inf(-1), 0, 0, 0, 0, 0, 0, 0, 1},
		} {
			want, _ := m.bmuBrute(q)
			for g := range m.weights {
				if got, _ := m.bmuSeeded(q, g); got != want {
					t.Fatalf("query %v guess %d: seeded %d, brute %d", q, g, got, want)
				}
			}
		}
		for _, dim := range []int{4, 9, 16} {
			base, queries := corpusMap(4, 4, dim, 4)
			units := len(base.weights)
			for g := 0; g < units; g++ {
				m := newMap(base.rows, base.cols, dim)
				copy(m.flat, base.flat)
				m.weights[(g+1)%units][0] = math.NaN()
				m.weights[(g+2)%units][dim-1] = math.Inf(1)
				m.weights[(g+5)%units][dim/2] = math.Inf(-1)
				m.weights[(g+6)%units][1] = math.NaN()
				m.weights[(g+6)%units][dim-2] = math.Inf(1)
				for qi, q := range append(queries[:40:40], base.weights[(g+1)%units], base.weights[(g+5)%units]) {
					want, _ := m.bmuBrute(q)
					if got, _ := m.bmuSeeded(q, g); got != want {
						t.Fatalf("dim %d, guess %d, query %d: seeded %d, brute %d", dim, g, qi, got, want)
					}
				}
			}
		}
	})
}

// TestTrainedMapIdenticalAcrossExactModes proves the two searches
// interchangeable for the queries production makes: every trained map
// — the case study's 5 × 4 grid, suite-500's 12 × 10 and a 2 × 2 —
// serves placement, HitMap and quantization error through the pruned
// index, and each must equal the brute scan's answer exactly.
func TestTrainedMapIdenticalAcrossExactModes(t *testing.T) {
	samples := benchSamples(160, 8)
	for _, grid := range [][2]int{{12, 10}, {5, 4}, {2, 2}} {
		for seed := uint64(1); seed <= 5; seed++ {
			m, err := TrainCtx(context.Background(), Config{Rows: grid[0], Cols: grid[1], Steps: 12000, Seed: seed}, samples)
			if err != nil {
				t.Fatal(err)
			}
			if m.index == nil {
				t.Fatalf("%v seed %d: trained map has no pruned index", grid, seed)
			}
			type answers struct {
				places []vecmath.Vector
				hits   [][]int
				qe     float64
			}
			query := func(index *bmuIndex) answers {
				m.index = index
				return answers{m.Placements(samples), m.HitMap(samples), m.QuantizationError(samples)}
			}
			pruned, brute := query(m.index), query(nil)
			if !reflect.DeepEqual(pruned.places, brute.places) {
				t.Fatalf("%v seed %d: pruned placements differ from brute", grid, seed)
			}
			if !reflect.DeepEqual(pruned.hits, brute.hits) {
				t.Fatalf("%v seed %d: pruned hit map %v, brute %v", grid, seed, pruned.hits, brute.hits)
			}
			if pruned.qe != brute.qe {
				t.Fatalf("%v seed %d: pruned quantization error %v, brute %v", grid, seed, pruned.qe, brute.qe)
			}
		}
	}
}
