package vecmath

import (
	"context"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d, want 2x3", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At round-trip failed")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMatrix(0, 3) did not panic")
		}
	}()
	NewMatrix(0, 3)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("FromRows layout wrong")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowIsView(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("Row should be a view into the matrix")
	}
}

func TestColIsCopy(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Col(0)
	c[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Col should copy")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	mt := m.Transpose()
	if mt.Rows() != 3 || mt.Cols() != 2 {
		t.Fatalf("transpose shape = %dx%d", mt.Rows(), mt.Cols())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != mt.At(j, i) {
				t.Fatal("transpose values wrong")
			}
		}
	}
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := a.Mul(b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("Mul = %v at (%d,%d), want %v", c.At(i, j), i, j, want[i][j])
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Mul(Identity(2))
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != a.At(i, j) {
				t.Fatal("A·I != A")
			}
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape-mismatched Mul did not panic")
		}
	}()
	NewMatrix(2, 3).Mul(NewMatrix(2, 3))
}

func TestIsSymmetric(t *testing.T) {
	s := FromRows([][]float64{{1, 2}, {2, 1}})
	if !s.IsSymmetric(0) {
		t.Error("symmetric matrix not recognized")
	}
	a := FromRows([][]float64{{1, 2}, {3, 1}})
	if a.IsSymmetric(0.5) {
		t.Error("asymmetric matrix accepted")
	}
	r := NewMatrix(2, 3)
	if r.IsSymmetric(1) {
		t.Error("non-square matrix accepted as symmetric")
	}
}

func TestCovarianceMatrix(t *testing.T) {
	// Two perfectly correlated features.
	obs := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	cov, means, err := CovarianceMatrix(context.Background(), obs)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(means[0], 2, 1e-12) || !almostEqual(means[1], 4, 1e-12) {
		t.Fatalf("means = %v", means)
	}
	if !almostEqual(cov.At(0, 0), 2.0/3.0, 1e-12) {
		t.Errorf("var(x) = %v, want 2/3", cov.At(0, 0))
	}
	if !almostEqual(cov.At(1, 1), 8.0/3.0, 1e-12) {
		t.Errorf("var(y) = %v, want 8/3", cov.At(1, 1))
	}
	if !almostEqual(cov.At(0, 1), 4.0/3.0, 1e-12) || cov.At(0, 1) != cov.At(1, 0) {
		t.Errorf("cov(x,y) = %v / %v, want 4/3 symmetric", cov.At(0, 1), cov.At(1, 0))
	}
}
