package som

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"hmeans/internal/rng"
)

// kernelValues are the weights and samples the kernel tests mix with
// random normals: signed zeros, subnormals, values near ±1e308, where
// a difference or a sum overflows, and infinities, whose differences
// are NaN. NaN itself is left out: with two NaN operands x86 returns
// the first one's payload, and the compiler may order a commutative
// operation's operands either way in the Go loop.
var kernelValues = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1050,
	1e308, -1e308, math.MaxFloat64, -math.MaxFloat64,
	math.Inf(1), math.Inf(-1),
}

// sameBits reports the first index at which got and want hold other
// float64 bits, or −1.
func sameBits(got, want []float64) int {
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			return j
		}
	}
	return -1
}

// TestUpdateKernelMatchesGo: the AVX2 kernel leaves updateGo's bits at
// every length 0–67, on 1–5 units laid out back to back as in a map
// and followed by one guard value, each unit moved by its own call
// with its own h: 1e-9 (the smallest h update keeps), α's floor, α0
// and random values below α0. The guard and every unit the call does
// not own must keep their bits too.
func TestUpdateKernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2; update runs the Go loop alone")
	}
	r := rng.New(1)
	value := func() float64 {
		if r.Intn(3) == 0 {
			return kernelValues[r.Intn(len(kernelValues))]
		}
		return 4 * r.NormFloat64()
	}
	hs := []float64{1e-9, alphaFloor, alpha0}
	for dim := 0; dim <= 67; dim++ {
		for units := 1; units <= 5; units++ {
			for trial := 0; trial < 6; trial++ {
				x := make([]float64, dim)
				for j := range x {
					x[j] = value()
				}
				got := make([]float64, units*dim+1)
				for j := range got {
					got[j] = value()
				}
				want := slices.Clone(got)
				for u := range units {
					h := alpha0 * r.Float64()
					if k := trial*units + u; k < len(hs) {
						h = hs[k]
					}
					updateAVX2(got[u*dim:(u+1)*dim:(u+1)*dim], x, h)
					updateGo(want[u*dim:(u+1)*dim:(u+1)*dim], x, h)
				}
				if j := sameBits(got, want); j >= 0 {
					t.Fatalf("dim %d, %d units, trial %d: element %d (unit %d) is %v, the Go loop's %v", dim, units, trial, j, j/max(dim, 1), got[j], want[j])
				}
			}
		}
	}
}

// FuzzUpdateKernel: on any weights, sample and h that are not NaN, the
// AVX2 kernel leaves updateGo's bits, and the value after the weights
// keeps its own. data holds the weights' bits then the sample's, eight
// bytes a value.
func FuzzUpdateKernel(f *testing.F) {
	if !useAVX2 {
		f.Skip("this CPU has no AVX2; update runs the Go loop alone")
	}
	seed := func(h float64, vals ...float64) {
		var data []byte
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data, h)
	}
	seed(1e-9)
	seed(alpha0, 1, 2)
	seed(alphaFloor, kernelValues...)
	seed(0.3, 1, -1, 2, -2, 3, -3, 4, -4, 5, 1e308, -1e308, math.Inf(1), math.Inf(1), 0, math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, data []byte, h float64) {
		if math.IsNaN(h) {
			t.Skip("NaN h")
		}
		n := len(data) / 16
		vals := make([]float64, 2*n)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(vals[i]) {
				t.Skip("NaN weight or sample")
			}
		}
		x := vals[n:]
		got := append(slices.Clone(vals[:n]), math.Pi)
		want := slices.Clone(got)
		updateAVX2(got[:n:n], x, h)
		updateGo(want[:n:n], x, h)
		if j := sameBits(got, want); j >= 0 {
			t.Fatalf("length %d, h %v: element %d is %v, the Go loop's %v", n, h, j, got[j], want[j])
		}
	})
}

// TestAVX2Usable: the kernel runs only when the CPU has AVX and AVX2
// and the OS has enabled XGETBV and saves the XMM and YMM registers.
func TestAVX2Usable(t *testing.T) {
	const ecx1 = cpuidOSXSAVE | cpuidAVX
	for _, tc := range []struct {
		name                      string
		maxLeaf, ecx1, ebx7, xcr0 uint32
		want                      bool
	}{
		{"largest leaf below 7", 6, ecx1, cpuidAVX2, xcr0YMM, false},
		{"AVX without OSXSAVE", 13, cpuidAVX, cpuidAVX2, xcr0YMM, false},
		{"OSXSAVE without AVX", 13, cpuidOSXSAVE, cpuidAVX2, xcr0YMM, false},
		{"XCR0 without YMM state", 13, ecx1, cpuidAVX2, 1 << 1, false},
		{"XCR0 without XMM state", 13, ecx1, cpuidAVX2, 1 << 2, false},
		{"AVX2 clear", 13, ecx1, ^uint32(cpuidAVX2), xcr0YMM, false},
		{"everything set", 13, ecx1, cpuidAVX2, xcr0YMM, true},
		{"everything set, other bits too", 7, ^uint32(0), ^uint32(0), ^uint32(0), true},
	} {
		if got := avx2Usable(tc.maxLeaf, tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: avx2Usable(%d, %#x, %#x, %#x) = %v, want %v", tc.name, tc.maxLeaf, tc.ecx1, tc.ebx7, tc.xcr0, got, tc.want)
		}
	}
}
