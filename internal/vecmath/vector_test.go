package vecmath

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func cleanVec(raw []float64, n int) Vector {
	v := make(Vector, n)
	for i := 0; i < n && i < len(raw); i++ {
		x := raw[i]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		v[i] = math.Mod(x, 1000)
	}
	return v
}

func TestVectorArithmetic(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Add(w); got[0] != 5 || got[1] != 7 || got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := v.Sub(w); got[0] != -3 || got[1] != -3 || got[2] != -3 {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestVectorNorm(t *testing.T) {
	v := Vector{3, 4}
	if v.Norm() != 5 {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
}

func TestAXPYInPlace(t *testing.T) {
	v := Vector{1, 1}
	v.AXPYInPlace(2, Vector{3, 4})
	if v[0] != 7 || v[1] != 9 {
		t.Errorf("AXPY = %v, want [7 9]", v)
	}
}

func TestCloneIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases original storage")
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	Vector{1}.Add(Vector{1, 2})
}

// Property: dot product is bilinear in its first argument.
func TestDotBilinear(t *testing.T) {
	f := func(rawA, rawB, rawC []float64, sRaw float64) bool {
		a := cleanVec(rawA, 5)
		b := cleanVec(rawB, 5)
		c := cleanVec(rawC, 5)
		s := math.Mod(sRaw, 10)
		if math.IsNaN(s) {
			s = 1
		}
		left := a.Scale(s).Add(b).Dot(c)
		right := s*a.Dot(c) + b.Dot(c)
		return almostEqual(left, right, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy–Schwarz |v·w| <= |v||w|.
func TestCauchySchwarz(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		a := cleanVec(rawA, 6)
		b := cleanVec(rawB, 6)
		return math.Abs(a.Dot(b)) <= a.Norm()*b.Norm()+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
