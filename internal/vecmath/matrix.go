package vecmath

import (
	"context"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape. It panics on
// non-positive dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("vecmath: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be non-empty
// and rectangular. The data is copied.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("vecmath: FromRows requires non-empty input")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic(fmt.Sprintf("vecmath: ragged input row %d: %d != %d", i, len(r), m.cols))
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns row i as a Vector view (not a copy).
func (m *Matrix) Row(i int) Vector { return Vector(m.data[i*m.cols : (i+1)*m.cols]) }

// Col returns column j as a new Vector.
func (m *Matrix) Col(j int) Vector {
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Clone returns an independent deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Transpose returns mᵀ.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns m × other. It panics if the inner dimensions differ.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("vecmath: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.rows, other.cols)
	for i := 0; i < m.rows; i++ {
		mrow := m.data[i*m.cols : (i+1)*m.cols]
		orow := out.data[i*other.cols : (i+1)*other.cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			krow := other.data[k*other.cols : (k+1)*other.cols]
			for j, kv := range krow {
				orow[j] += mv * kv
			}
		}
	}
	return out
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Matrix) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// CovarianceMatrix returns the population covariance matrix of the
// observation matrix obs, whose rows are observations and columns are
// features, along with the column means. The context is polled before
// each row of the covariance; once it has ended the build stops and
// returns its error.
func CovarianceMatrix(ctx context.Context, obs *Matrix) (cov *Matrix, means Vector, err error) {
	n, d := obs.rows, obs.cols
	means = make(Vector, d)
	for j := 0; j < d; j++ {
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += obs.At(i, j)
		}
		means[j] = sum / float64(n)
	}
	cov = NewMatrix(d, d)
	for a := 0; a < d; a++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		for b := a; b < d; b++ {
			sum := 0.0
			for i := 0; i < n; i++ {
				sum += (obs.At(i, a) - means[a]) * (obs.At(i, b) - means[b])
			}
			c := sum / float64(n)
			cov.Set(a, b, c)
			cov.Set(b, a, c)
		}
	}
	return cov, means, nil
}
