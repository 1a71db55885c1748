package som

// updateAVX2 moves w toward x four elements at a time, with the
// rounding of updateGo: VSUBPD x − w, VMULPD by h and VADDPD to w, in
// updateGo's operand order and with no fused multiply-add, so every
// element keeps updateGo's bits. The last len(x) mod 4 elements take
// the scalar forms of the same three instructions. w must be at least
// as long as x. It runs only where useAVX2 is set.
//
//go:noescape
func updateAVX2(w, x []float64, h float64)

// bmuAVX2 sums the squared distances from x to eight units of the
// unit-major weights w at once, for bmuSeeded: lanes 0–3 hold the
// units that start at w[0], w[dim], w[2·dim] and w[3·dim], and lanes
// 4–7 those that start at w[boff] and then every dim, where dim is
// len(x). Each lane adds its unit's squares in element order with
// VSUBPD x − w, VMULPD and VADDPD, no fused multiply-add, so its sum
// has the bits of the Go loop's over the same coordinates. It sums
// the first dim − dim mod 4 coordinates and leaves the rest to the
// caller. Lanes whose bit in live is clear are dropped from the
// start. After every bmuBlock coordinates a lane whose sum is greater
// than bound is dropped (a NaN sum is not), and the call returns once
// every lane is. It stores the eight sums, which hold meaning for the
// lanes still live only, and returns their mask and the number of
// coordinates it summed in lanes that were live when it summed them.
// w must hold boff + 4·dim values. It runs only where useAVX2 is set.
//
//go:noescape
func bmuAVX2(sums *[8]float64, x, w []float64, boff int, bound float64, live uint64) (left uint64, coords int)

// cpuid returns the registers CPUID leaves for leaf and subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the register state the OS
// saves. It faults unless leaf 1 of CPUID reports OSXSAVE.
func xgetbv() (eax uint32)

// CPUID bits, and XCR0's, that avx2Usable reads.
const (
	cpuidOSXSAVE = 1 << 27 // leaf 1, ECX
	cpuidAVX     = 1 << 28 // leaf 1, ECX
	cpuidAVX2    = 1 << 5  // leaf 7, EBX
	xcr0YMM      = 1<<1 | 1<<2
)

// avx2Usable reports whether the AVX2 kernel may run, from CPUID's
// largest standard leaf, leaf 1's ECX, leaf 7's EBX and XCR0's low
// word: the CPU has AVX and AVX2, and the OS has enabled XGETBV
// (OSXSAVE) and saves both the XMM and the YMM registers: the checks
// the runtime's internal/cpu makes for its HasAVX2, and AVX itself.
func avx2Usable(maxLeaf, ecx1, ebx7, xcr0 uint32) bool {
	return maxLeaf >= 7 &&
		ecx1&(cpuidOSXSAVE|cpuidAVX) == cpuidOSXSAVE|cpuidAVX &&
		xcr0&xcr0YMM == xcr0YMM &&
		ebx7&cpuidAVX2 != 0
}

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	var ecx1, ebx7, xcr0 uint32
	if maxLeaf >= 1 {
		_, _, ecx1, _ = cpuid(1, 0)
	}
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 {
		xcr0 = xgetbv()
	}
	useAVX2 = avx2Usable(maxLeaf, ecx1, ebx7, xcr0)
}
