//go:build amd64 && !purego

package tensor

// haveAVX2 is decided once at start-up from the CPU alone: the assembly
// runs only when the processor has AVX2 and the operating system saves the
// YMM registers across context switches.
var haveAVX2 = detectAVX2()

// cpuid executes CPUID with the given leaf and sub-leaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Call only when CPUID reports
// OSXSAVE.
func xgetbv() (eax, edx uint32)

// axpy4AVX2 and axpy1AVX2 trust len(dst) for every operand; axpy4 and axpy1
// establish that before calling.
//
//go:noescape
func axpy4AVX2(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)

//go:noescape
func axpy1AVX2(dst, b []float64, a float64)

func detectAVX2() bool {
	const (
		osxsave = 1 << 27 // leaf 1 ECX: XGETBV enabled by the OS
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 sub-leaf 0 EBX
		ymmXMM  = 0x6     // XCR0: SSE and AVX state both enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&ymmXMM != ymmXMM {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&avx2 != 0
}

func axpy4(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if !haveAVX2 {
		axpy4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	n := len(dst)
	axpy4AVX2(dst, b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
}

func axpy1(dst, b []float64, a float64) {
	if !haveAVX2 {
		axpy1Go(dst, b, a)
		return
	}
	axpy1AVX2(dst, b[:len(dst)], a)
}
