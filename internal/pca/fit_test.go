package pca

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"hmeans/internal/chars"
	"hmeans/internal/rng"
	"hmeans/internal/simbench"
	"hmeans/internal/vecmath"
)

// fitOracle is the reference Fit is proven against: the Jacobi on the
// full d × d covariance of the rows, with its top k eigenpairs and
// the same clamp of negative rounding. It returns the whole
// eigendecomposition too, and the covariance.
func fitOracle(t testing.TB, rows [][]float64, k int) (*Model, *vecmath.Eigen, *vecmath.Matrix) {
	t.Helper()
	cov, means, err := vecmath.CovarianceMatrix(context.Background(), vecmath.FromRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	eig, err := vecmath.SymmetricEigen(context.Background(), cov)
	if err != nil {
		t.Fatal(err)
	}
	m := &Model{Means: means, Components: eig.Vectors[:k], Variances: make([]float64, k)}
	for i := range m.Variances {
		if eig.Values[i] > 0 {
			m.Variances[i] = eig.Values[i]
		}
	}
	return m, eig, cov
}

// randomRows returns n rows of d Gaussian features whose scales cycle
// through 1–5.
func randomRows(n, d int, seed uint64) [][]float64 {
	r := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, d)
		for j := range rows[i] {
			rows[i][j] = r.NormFloat64() * float64(j%5+1)
		}
	}
	return rows
}

// lowRankRows returns n rows on a rank-r affine subspace of d
// features: a random offset plus r random directions with
// coefficients of decreasing scale.
func lowRankRows(n, d, r int, seed uint64) [][]float64 {
	src := rng.New(seed)
	gauss := func(scale float64) []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = scale * src.NormFloat64()
		}
		return v
	}
	offset := gauss(3)
	dirs := make([][]float64, r)
	for k := range dirs {
		dirs[k] = gauss(1)
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = append([]float64(nil), offset...)
		for k, dir := range dirs {
			c := src.NormFloat64() * float64(r-k)
			for j := range dir {
				rows[i][j] += c * dir[j]
			}
		}
	}
	return rows
}

// twoBlobRows returns the SOM tests' two-blob input: nPer rows around
// the origin and nPer around (6, …, 6), with isotropic noise of 0.3,
// so every variance after the first nearly ties the next.
func twoBlobRows(nPer, d int, seed uint64) [][]float64 {
	r := rng.New(seed)
	var rows [][]float64
	for b := 0; b < 2; b++ {
		for i := 0; i < nPer; i++ {
			row := make([]float64, d)
			for j := range row {
				row[j] = float64(b)*6 + 0.3*r.NormFloat64()
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// tableRows returns the rows of a preprocessed characterization.
func tableRows(tab *chars.Table) [][]float64 {
	var rows [][]float64
	for _, v := range tab.Vectors() {
		rows = append(rows, v)
	}
	return rows
}

// caseStudyInputs returns the paper's case study as the pipeline
// feeds it to the SOM: SAR counters on machine A (sampling seed 1) and
// method-utilization bits, each filtered and standardized.
func caseStudyInputs(t testing.TB) (counters, bits [][]float64) {
	t.Helper()
	ws, _, err := simbench.CalibratedSuite()
	if err != nil {
		t.Fatal(err)
	}
	sar, err := simbench.SARTable(ws, simbench.MachineA(), simbench.SARSpec{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	hprof, err := simbench.HprofTable(ws)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := chars.PreprocessCounters(sar)
	b, _ := chars.PreprocessBits(hprof)
	return tableRows(c), tableRows(b)
}

// suite500Rows returns perfbench's suite-500 characterization: 500
// synthetic workloads × 40 standardized counters, of full rank.
func suite500Rows(t testing.TB) [][]float64 {
	t.Helper()
	pts := simbench.SyntheticSpec{N: 500, Dims: 40, Clusters: 16, Seed: 1}.Points()
	names, feats := make([]string, len(pts)), make([]string, len(pts[0]))
	rows := make([][]float64, len(pts))
	for i, p := range pts {
		names[i], rows[i] = fmt.Sprintf("w%03d", i), p
	}
	for j := range feats {
		feats[j] = fmt.Sprintf("c%02d", j)
	}
	tab, err := chars.NewTable(names, feats, rows)
	if err != nil {
		t.Fatal(err)
	}
	prepared, _ := chars.PreprocessCounters(tab)
	return tableRows(prepared)
}

// Tolerances of the oracle comparison. A variance may differ from the
// oracle's by varTol of the largest variance, the scale of the
// Jacobi's rounding. An axis is compared, up to sign, only where its
// variance is at least gapTol of the largest apart from both
// neighbours. There it may differ in Euclidean norm by axisTol times
// the largest variance over that gap: a perturbation of the covariance
// turns an eigenvector by at most its size over the gap (Davis–Kahan),
// and the Jacobi stops with off-diagonal entries of up to 1e-11 of the
// covariance's Frobenius norm.
const (
	varTol  = 1e-12
	gapTol  = 1e-6
	axisTol = 1e-10
)

// checkAgainstOracle fits rows with k components and checks the model
// against fitOracle: the variances, each axis that is apart from its
// neighbours, unit-norm orthogonal components inside the rows' span,
// and the span basis and coordinates, which must rebuild every row.
// It returns the model.
func checkAgainstOracle(t *testing.T, name string, rows [][]float64, k int) *Model {
	t.Helper()
	m, err := Fit(context.Background(), rows, k)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, eig, cov := fitOracle(t, rows, k)
	top := math.Max(want.Variances[0], math.SmallestNonzeroFloat64)
	n, d := len(rows), len(rows[0])
	if len(m.Axes) != len(m.Variances) || len(m.Components) != len(m.Variances) || len(m.Variances) > k {
		t.Fatalf("%s: %d axes, %d components, %d variances for k = %d", name, len(m.Axes), len(m.Components), len(m.Variances), k)
	}
	// The rank Fit found leaves no variance behind: the oracle's
	// variances past it are rounding.
	for i := len(m.Variances); i < k; i++ {
		if want.Variances[i] > varTol*top {
			t.Fatalf("%s: Fit returned %d axes, but the oracle's variance %d is %g (largest %g)", name, len(m.Variances), i, want.Variances[i], top)
		}
	}
	for i, v := range m.Variances {
		if v < 0 || i > 0 && v > m.Variances[i-1] {
			t.Fatalf("%s: variances %v are not non-negative and descending", name, m.Variances)
		}
		if diff := math.Abs(v - want.Variances[i]); diff > varTol*top {
			t.Fatalf("%s: variance %d is %.17g, oracle %.17g (|Δ| %g of the largest)", name, i, v, want.Variances[i], diff/top)
		}
	}
	for i, c := range m.Components {
		if len(c) != d {
			t.Fatalf("%s: component %d has %d features, want %d", name, i, len(c), d)
		}
		for j := 0; j <= i; j++ {
			dot, wantDot := c.Dot(m.Components[j]), 0.0
			if i == j {
				wantDot = 1
			}
			if math.Abs(dot-wantDot) > 1e-10 {
				t.Fatalf("%s: components %d·%d = %v, want %v", name, i, j, dot, wantDot)
			}
		}
		// Inside the span: c is an eigenvector of the rows' covariance
		// with its variance, so c = C·c/λ up to the residual, and C·c
		// lies in the span.
		residual := 0.0
		for a := 0; a < d; a++ {
			ca := -m.Variances[i] * c[a]
			for b := 0; b < d; b++ {
				ca += cov.At(a, b) * c[b]
			}
			residual += ca * ca
		}
		if r := math.Sqrt(residual); r > 1e-10*top {
			t.Fatalf("%s: component %d is off its eigen-equation by %g (largest variance %g)", name, i, r, top)
		}
		gap := math.Inf(1)
		if i > 0 {
			gap = eig.Values[i-1] - eig.Values[i]
		}
		if i+1 < len(eig.Values) {
			gap = math.Min(gap, eig.Values[i]-eig.Values[i+1])
		}
		if gap < gapTol*top {
			continue
		}
		sign := math.Copysign(1, c.Dot(want.Components[i]))
		if dist := vecmath.EuclideanDistance(c.Scale(sign), want.Components[i]); dist > axisTol*top/gap {
			t.Fatalf("%s: axis %d is %g from the oracle's (gap %g of the largest variance)", name, i, dist, gap/top)
		}
	}
	if m.Basis == nil {
		if len(m.Coords) != 0 || len(m.Variances) > 0 && len(m.Axes[0]) != d {
			t.Fatalf("%s: a full-rank model has %d coordinate rows and %d-element axes", name, len(m.Coords), len(m.Axes[0]))
		}
		return m
	}
	if r := len(m.Basis); r >= d || r > n-1 {
		t.Fatalf("%s: span rank %d, want below d = %d and at most n − 1 = %d", name, r, d, n-1)
	}
	scale := 0.0
	for _, row := range rows {
		scale = math.Max(scale, vecmath.EuclideanDistance(row, m.Means))
	}
	for i, row := range rows {
		rebuilt := m.Means.Clone()
		for k, q := range m.Basis {
			rebuilt.AXPYInPlace(m.Coords[i][k], q)
		}
		if dist := vecmath.EuclideanDistance(rebuilt, row); dist > 1e-12*math.Max(scale, 1) {
			t.Fatalf("%s: row %d is %g from its coordinates' point (largest centered norm %g)", name, i, dist, scale)
		}
	}
	return m
}

// TestFitMatchesOracle: on every kind of input the SOM start and the
// reduction comparison see, Fit's variances equal the d × d Jacobi's,
// its axes equal the Jacobi's up to sign wherever a variance is apart
// from its neighbours, and its span basis rebuilds every row.
func TestFitMatchesOracle(t *testing.T) {
	counters, bits := caseStudyInputs(t)
	cloned := append(append([][]float64(nil), counters...), counters[2], counters[7])
	type input struct {
		name string
		rows [][]float64
		k    int
		rank int // the span rank Fit must find; d for full rank
	}
	inputs := []input{
		{"counters", counters, 5, 12},
		{"bits", bits, 5, 8},
		{"two-blob", twoBlobRows(7, 160, 99), 4, 13},
		{"cloned", cloned, 5, 12},
		{"rank-2", lowRankRows(20, 30, 2, 1), 3, 2},
		{"rank-3", lowRankRows(9, 60, 3, 2), 4, 3},
		{"rank-1", lowRankRows(6, 8, 1, 3), 2, 1},
		{"line-2d", line2D(200, 0.01, 1), 2, 2},
	}
	if !testing.Short() {
		inputs = append(inputs, input{"suite-500", suite500Rows(t), 5, 40})
	}
	shapes := [][2]int{{3, 2}, {5, 3}, {13, 200}, {40, 12}, {30, 100}, {4, 60}, {60, 5}, {200, 8}, {25, 24}, {24, 25}}
	for s, shape := range shapes {
		n, d := shape[0], shape[1]
		inputs = append(inputs, input{fmt.Sprintf("random %d×%d", n, d), randomRows(n, d, uint64(s+1)), min(d, 4), min(n-1, d)})
	}
	for _, in := range inputs {
		m := checkAgainstOracle(t, in.name, in.rows, in.k)
		rank := len(in.rows[0])
		if m.Basis != nil {
			rank = len(m.Basis)
		}
		if rank != in.rank {
			t.Fatalf("%s: span rank %d, want %d", in.name, rank, in.rank)
		}
	}
}

// TestFitStopsOnEndedContext: Fit polls its context once per row in
// the Gram–Schmidt build and in the coordinates, and once per row of
// the coordinates' covariance and of the Jacobi's rotations. A context
// that ends at any poll stops it with the context's error.
func TestFitStopsOnEndedContext(t *testing.T) {
	rows := randomRows(13, 2000, 1)
	full := &endingCtx{Context: context.Background(), live: math.MaxInt}
	if _, err := Fit(full, rows, 2); err != nil {
		t.Fatal(err)
	}
	// Gram–Schmidt and the coordinates poll 13 times each, the 12 × 12
	// covariance 12 times, and the Jacobi at least once.
	if full.polls <= 13+13+12 {
		t.Fatalf("Fit polled its context %d times, want more than %d", full.polls, 13+13+12)
	}
	for live := 0; live < full.polls; live++ {
		ctx := &endingCtx{Context: context.Background(), live: live}
		if m, err := Fit(ctx, rows, 2); m != nil || !errors.Is(err, context.Canceled) || ctx.polls != live+1 {
			t.Fatalf("context ending after %d polls: model %v, error %v after %d polls; want context.Canceled after %d", live, m != nil, err, ctx.polls, live+1)
		}
	}
}

// endingCtx is a context whose Err reports context.Canceled from its
// (live+1)-th call on. It counts the calls.
type endingCtx struct {
	context.Context
	live, polls int
}

func (c *endingCtx) Err() error {
	c.polls++
	if c.polls > c.live {
		return context.Canceled
	}
	return nil
}

// FuzzFit fits small tables of finite values: eight-bit values on a
// power-of-two scale, so ties, duplicate rows and low ranks are
// common. Fit must not panic, and its model must pass the oracle
// comparison.
func FuzzFit(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(2), int8(0), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(5), uint8(4), uint8(3), int8(-10), []byte{0, 0, 0, 0, 7, 7, 7, 7, 1, 2, 3, 4})
	f.Add(uint8(4), uint8(6), uint8(2), int8(20), []byte{9})
	f.Add(uint8(6), uint8(3), uint8(3), int8(0), []byte{})
	f.Fuzz(func(t *testing.T, nb, db, kb uint8, exp int8, data []byte) {
		n, d := 2+int(nb)%9, 1+int(db)%10
		k := 1 + int(kb)%d
		scale := math.Ldexp(1, int(exp)%40)
		rows := make([][]float64, n)
		for i := range rows {
			rows[i] = make([]float64, d)
			for j := range rows[i] {
				if len(data) > 0 {
					rows[i][j] = float64(int8(data[(i*d+j)%len(data)])) * scale
				}
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("%d×%d k=%d", n, d, k), rows, k)
	})
}
