package tensor

// tier names the inner loop the accumulating matmul kernels run on. It is
// read from the CPU once at start-up (axpy_amd64.go) and is tierGo on every
// build without the assembly (axpy_generic.go). Every tier produces the same
// bits; a higher tier includes the ones below it, which it still uses for
// the shapes its own kernel does not take.
type tier int

const (
	tierGo     tier = iota // the Go loops of this file
	tierAVX2               // axpy4/axpy1 in AVX2 assembly
	tierAVX512             // dense strips on the 8 x 16 register tile (tile.go)
)

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
// its own add chain in ascending coefficient order, every step is one
// rounded multiply followed by one rounded add (never a fused
// multiply-add), and nothing is ever summed across k — so a lane computes
// exactly what the scalar loop computes for that j.

// axpy4Go is the Go reference for axpy4:
//
//	dst[j] = (((dst[j] + a0·b0[j]) + a1·b1[j]) + a2·b2[j]) + a3·b3[j]
//
// Every operand must be at least len(dst) long.
func axpy4Go(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	b0 = b0[:len(dst)]
	b1 = b1[:len(dst)]
	b2 = b2[:len(dst)]
	b3 = b3[:len(dst)]
	for j := range dst {
		v := dst[j] + a0*b0[j]
		v += a1 * b1[j]
		v += a2 * b2[j]
		v += a3 * b3[j]
		dst[j] = v
	}
}

// axpy1Go is the Go reference for axpy1: dst[j] += a·b[j].
func axpy1Go(dst, b []float64, a float64) {
	b = b[:len(dst)]
	for j, bv := range b {
		dst[j] += a * bv
	}
}

// Axpy adds a·b to dst element by element, dst[j] += a·b[j], with one
// rounded multiply and one rounded add per element — the step every
// accumulating matmul kernel takes for one coefficient. It exists for
// callers that know which coefficients of a row are non-zero (a category
// code in place of its one-hot row) and can therefore apply exactly the
// steps the dense zero-skip kernels would, and no others. b must be at
// least len(dst) long.
func Axpy(dst, b []float64, a float64) { axpy1(dst, b, a) }
