//go:build amd64 && !purego

package tensor

// kernelTier is decided once at start-up from the CPU alone: an assembly
// kernel runs only when the processor has its instructions and the operating
// system saves the registers it uses across context switches.
var kernelTier = detectTier()

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

// tile8x16 computes one 8 x 16 output tile over kc coefficients; see
// tile_amd64.s. dst and a are walked with byte strides (ldd between output
// rows, aRow between the strip's eight coefficient rows, aStep between
// consecutive k), panel holds kc packed 16-wide rows of b, bit j of mask
// enables output column j, accumulate resumes the chains from dst instead of
// starting them at +0, and a non-nil bias points at sixteen addends (as many
// as mask enables are read) that every row takes before it is stored.
//
//go:noescape
func tile8x16(dst *float64, ldd uintptr, a *float64, aRow, aStep uintptr, panel *float64, kc int, mask uint32, accumulate bool, bias *float64)

// packPanel16 packs one kc x 16 panel of b for tile8x16; see tile_amd64.s.
//
//go:noescape
func packPanel16(dst, src *float64, stride uintptr, kc int, mask uint32)

func detectTier() tier {
	const (
		osxsave = 1 << 27 // leaf 1 ECX: XGETBV enabled by the OS
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 sub-leaf 0 EBX
		avx512f = 1 << 16 // leaf 7 sub-leaf 0 EBX
		ymmXMM  = 0x6     // XCR0: SSE and AVX state both enabled
		zmmK    = 0xe0    // XCR0: opmask, ZMM0-15 upper halves and ZMM16-31 state
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return tierGo
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 || c1&avx == 0 {
		return tierGo
	}
	xcr0, _ := xgetbv()
	if xcr0&ymmXMM != ymmXMM {
		return tierGo
	}
	_, b7, _, _ := cpuid(7, 0)
	switch {
	case b7&avx2 == 0:
		return tierGo
	case b7&avx512f != 0 && xcr0&zmmK == zmmK:
		return tierAVX512
	}
	return tierAVX2
}

func axpy4(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	if kernelTier == tierGo {
		axpy4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
		return
	}
	n := len(dst)
	axpy4AVX2(dst, b0[:n], b1[:n], b2[:n], b3[:n], a0, a1, a2, a3)
}

func axpy1(dst, b []float64, a float64) {
	if kernelTier == tierGo {
		axpy1Go(dst, b, a)
		return
	}
	axpy1AVX2(dst, b[:len(dst)], a)
}
