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

// bmuKernelRef is bmuAVX2 in Go: lane by lane, the live lanes' sums of
// squares over the first len(x) − len(x) mod 4 coordinates in element
// order, each lane dropped once its sum after a multiple of bmuBlock
// coordinates is greater than bound, and the lane-coordinates summed.
func bmuKernelRef(x, w []float64, boff int, bound float64, live uint64) (sums [8]float64, left uint64, coords int) {
	dim := len(x)
	for l := range 8 {
		if live&(1<<l) == 0 {
			continue
		}
		off := l * dim
		if l >= 4 {
			off = boff + (l-4)*dim
		}
		u := w[off : off+dim]
		sum, kept := 0.0, true
		for j := 0; j < dim&^3 && kept; j++ {
			d := x[j] - u[j]
			sum += d * d
			coords++
			kept = (j+1)%bmuBlock != 0 || !(sum > bound)
		}
		if kept {
			sums[l] = sum
			left |= 1 << l
		}
	}
	return sums, left, coords
}

// checkBMUKernel runs bmuAVX2 and bmuKernelRef on the same input and
// reports a difference in the live mask, the lane-coordinates or a
// live lane's sum bits, or a write next to the sums.
func checkBMUKernel(t *testing.T, x, w []float64, boff int, bound float64, live uint64) {
	t.Helper()
	var buf [10]float64
	buf[0], buf[9] = math.Pi, math.E
	left, coords := bmuAVX2((*[8]float64)(buf[1:9]), x, w, boff, bound, live)
	sums, wantLeft, wantCoords := bmuKernelRef(x, w, boff, bound, live)
	if left != wantLeft || coords != wantCoords {
		t.Fatalf("dim %d, lanes 4–7 at %d, bound %v, live %08b: kernel left %08b after %d lane-coordinates, the Go loop %08b after %d",
			len(x), boff, bound, live, left, coords, wantLeft, wantCoords)
	}
	for l := range 8 {
		if left&(1<<l) != 0 && math.Float64bits(buf[1+l]) != math.Float64bits(sums[l]) {
			t.Fatalf("dim %d, lanes 4–7 at %d, bound %v, live %08b: lane %d sums %v, the Go loop %v",
				len(x), boff, bound, live, l, buf[1+l], sums[l])
		}
	}
	if buf[0] != math.Pi || buf[9] != math.E {
		t.Fatalf("dim %d: the kernel wrote next to the sums", len(x))
	}
}

// TestBMUKernelMatchesGo: at every dim 4–67, from every starting live
// mask and against bounds 0, a middle value and +Inf, the AVX2 search
// kernel leaves live the lanes the Go loop's abandon test keeps, counts
// the lane-coordinates that loop sums, and gives each live lane the
// Go loop's sum bit for bit. Lanes 4–7 follow lanes 0–3 (a group of
// eight consecutive units) or overlap them by 1–4 units, as in the
// last group of a map of 4–7 units. Weights and samples are random
// normals, mixed in two of the three trials with the update tests'
// kernelValues, one value in 32 or one in 4; the middle bound is the
// fourth smallest of the eight lanes' sums.
func TestBMUKernelMatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("this CPU has no AVX2; the BMU search runs the Go loop alone")
	}
	r := rng.New(2)
	for dim := 4; dim <= 67; dim++ {
		for trial, special := range []int{0, 32, 4} {
			value := func() float64 {
				if special > 0 && r.Intn(special) == 0 {
					return kernelValues[r.Intn(len(kernelValues))]
				}
				return 4 * r.NormFloat64()
			}
			x := make([]float64, dim)
			for j := range x {
				x[j] = value()
			}
			for _, boff := range []int{4 * dim, (dim + trial) % 4 * dim} {
				w := make([]float64, boff+4*dim)
				for j := range w {
					w[j] = value()
				}
				full, _, _ := bmuKernelRef(x, w, boff, math.Inf(1), 0xff)
				slices.Sort(full[:])
				for _, bound := range []float64{0, full[3], math.Inf(1)} {
					for live := uint64(0); live < 256; live++ {
						checkBMUKernel(t, x, w, boff, bound, live)
					}
				}
			}
		}
	}
}

// FuzzBMUKernel: on any weights, sample and bound that hold no NaN
// input value, from any live mask, the AVX2 search kernel matches
// bmuKernelRef. data holds the sample's bits then the weights', eight
// bytes a value; lanes 4–7 start overlap%5 units after lanes 0–3, and
// the dim is the largest that fits.
func FuzzBMUKernel(f *testing.F) {
	if !useAVX2 {
		f.Skip("this CPU has no AVX2; the BMU search runs the Go loop alone")
	}
	seed := func(overlap uint8, bound float64, live uint8, vals ...float64) {
		var data []byte
		for _, v := range vals {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
		}
		f.Add(data, overlap, bound, live)
	}
	ramp := make([]float64, 9*9)
	for i := range ramp {
		ramp[i] = float64(i%13) - 6
	}
	seed(4, 50, 0xff, ramp...)
	seed(4, 0, 0x5a, ramp...)
	seed(2, math.Inf(1), 0xf3, ramp[:7*5]...)
	seed(0, 1e300, 0x0f, append(slices.Clone(ramp[:5*8]), kernelValues...)...)
	f.Fuzz(func(t *testing.T, data []byte, overlap uint8, bound float64, live uint8) {
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(vals[i]) {
				t.Skip("NaN weight or sample")
			}
		}
		k := int(overlap % 5)
		dim := len(vals) / (5 + k)
		if dim < 4 {
			t.Skip("fewer than four coordinates")
		}
		checkBMUKernel(t, vals[:dim], vals[dim:dim+(4+k)*dim], k*dim, bound, uint64(live))
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
