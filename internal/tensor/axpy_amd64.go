//go:build amd64 && !purego

package tensor

// kernelTier is decided once at start-up from the CPU alone (detectTier).
var kernelTier = detectTier(cpuWords())

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
// as mask enables are read) that every row takes, -0 read as +0, before it is
// stored.
//
//go:noescape
func tile8x16(dst *float64, ldd uintptr, a *float64, aRow, aStep uintptr, panel *float64, kc int, mask uint32, accumulate bool, bias *float64)

// packPanel16 packs one kc x 16 panel of b for tile8x16; see tile_amd64.s.
//
//go:noescape
func packPanel16(dst, src *float64, stride uintptr, kc int, mask uint32)

// cpuWords reads the CPUID and XGETBV words detectTier decides from, each
// only where the CPU says it may be read.
func cpuWords() (maxLeaf, c1, b7, xcr0 uint32) {
	maxLeaf, _, _, _ = cpuid(0, 0)
	if maxLeaf >= 1 {
		_, _, c1, _ = cpuid(1, 0)
	}
	if maxLeaf >= 7 {
		_, b7, _, _ = cpuid(7, 0)
	}
	if c1&cpuOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return maxLeaf, c1, b7, xcr0
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
