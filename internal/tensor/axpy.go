package tensor

import "math"

// tier names the inner loop the accumulating matmul kernels run on. It is
// read from the CPU once at start-up (axpy_amd64.go) and is tierGo on every
// build without the assembly (axpy_generic.go). Every tier produces the same
// bits; a higher tier includes the ones below it, which it still uses for
// the shapes its own kernel does not take.
type tier int

const (
	tierGo     tier = iota // the Go loops of this file
	tierAVX2               // axpy4/axpy1 in AVX2 and FMA3 assembly
	tierAVX512             // dense strips on the 8 x 16 register tile (tile.go)
)

// CPU feature bits the tiers need, as CPUID and XGETBV report them.
const (
	cpuOSXSAVE = 1 << 27 // leaf 1 ECX: XGETBV enabled by the OS
	cpuAVX     = 1 << 28 // leaf 1 ECX
	cpuFMA     = 1 << 12 // leaf 1 ECX: FMA3
	cpuAVX2    = 1 << 5  // leaf 7 sub-leaf 0 EBX
	cpuAVX512F = 1 << 16 // leaf 7 sub-leaf 0 EBX
	xcr0YMM    = 0x6     // XCR0: SSE and AVX state both enabled
	xcr0ZMM    = 0xe0    // XCR0: opmask, ZMM0-15 upper halves and ZMM16-31 state
)

// detectTier chooses the tier from what the CPU reports: maxLeaf is CPUID
// leaf 0's EAX, c1 leaf 1's ECX, b7 leaf 7 sub-leaf 0's EBX (read only when
// maxLeaf >= 7), and xcr0 XGETBV's EAX (read only when c1 has OSXSAVE). An
// assembly tier runs only when the processor has its instructions and the
// operating system saves the registers it uses across context switches. Both
// tiers fuse their multiply-adds, so both need FMA3; the AVX-512 tier, which
// takes the AVX2 kernels for what its tile leaves, needs everything the AVX2
// tier does.
func detectTier(maxLeaf, c1, b7, xcr0 uint32) tier {
	switch {
	case maxLeaf < 7,
		c1&cpuOSXSAVE == 0, c1&cpuAVX == 0, c1&cpuFMA == 0,
		xcr0&xcr0YMM != xcr0YMM,
		b7&cpuAVX2 == 0:
		return tierGo
	case b7&cpuAVX512F != 0 && xcr0&xcr0ZMM == xcr0ZMM:
		return tierAVX512
	}
	return tierAVX2
}

// KernelTier reports which matmul inner loop this process runs on:
// "avx512-tile8x16", "avx2-axpy" or "go". Speed depends on it and results do
// not, so a timing record should carry it — and says so when the AVX-512 tier
// runs without its exp, erf and GELU lane kernels (lanes).
func KernelTier() string {
	if kernelTier == tierAVX512 && !lanesMatch {
		return kernelTier.String() + ", scalar exp and erf"
	}
	return kernelTier.String()
}

func (t tier) String() string {
	switch t {
	case tierAVX512:
		return "avx512-tile8x16"
	case tierAVX2:
		return "avx2-axpy"
	}
	return "go"
}

// The axpy primitives are the inner loop under every accumulating matmul
// kernel (axpyRows, matmulT1Axpy and, through them, MatMulInto,
// MatMulAddRowInto, MatMulT1Into and Linear.Backward's g·Wᵀ) wherever the
// register tile of tile.go does not run. axpy4 and axpy1 dispatch to the AVX2
// assembly on amd64 CPUs that have it (axpy_amd64.go) and to the Go loops
// below everywhere else (axpy_generic.go); both produce the same bits.
//
// The rule that makes SIMD compatible with the repository's bit-identity
// contract: vectorise across output columns j only. Each dst[j] then keeps
// its own chain in ascending coefficient order, every step is one fused
// multiply-add, dst[j] = fl(a·b[j] + dst[j]) rounded once (math.FMA here,
// VFMADD231 in the assembly), and nothing is ever summed across k — so a lane
// computes exactly what the scalar loop computes for that j.

// axpy4Go is the Go reference for axpy4:
//
//	dst[j] = fma(a3, b3[j], fma(a2, b2[j], fma(a1, b1[j], fma(a0, b0[j], dst[j]))))
//
// Every operand must be at least len(dst) long.
func axpy4Go(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0 = b0[:len(dst)]
	b1 = b1[:len(dst)]
	b2 = b2[:len(dst)]
	b3 = b3[:len(dst)]
	for j := range dst {
		v := math.FMA(a0, b0[j], dst[j])
		v = math.FMA(a1, b1[j], v)
		v = math.FMA(a2, b2[j], v)
		dst[j] = math.FMA(a3, b3[j], v)
	}
}

// axpy1Go is the Go reference for axpy1: dst[j] = fma(a, b[j], dst[j]).
func axpy1Go(dst, b []float64, a float64) {
	b = b[:len(dst)]
	for j, bv := range b {
		dst[j] = math.FMA(a, bv, dst[j])
	}
}

// Axpy adds a·b to dst element by element, dst[j] = fl(a·b[j] + dst[j]), one
// fused multiply-add rounded once per element — the step every accumulating
// matmul kernel takes for one coefficient. It exists for
// callers that know which coefficients of a row are non-zero (a category
// code in place of its one-hot row) and can therefore apply exactly the
// steps the dense zero-skip kernels would, and no others. b must be at
// least len(dst) long.
func Axpy(dst, b []float64, a float64) { axpy1(dst, b, a) }
