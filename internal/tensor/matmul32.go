package tensor

import "fmt"

// float32 twins of the hot matmul kernels, used by the reduced-precision
// sampling and decode paths. They mirror the float64 kernels exactly: same
// i-k-j loop order, same 4-way ILP k-row fusion with ascending-k adds per
// output element, same zero-skip scalar fallback, and the same persistent
// worker pool — so serial and pooled execution are bit-identical (in
// float32) and a steady-state call performs zero heap allocations. Halving
// the element width doubles the effective SIMD lanes and cache-resident
// footprint, which is the whole point of this path.

func checkInto32(dst, a, b *Matrix32, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
	if dst == a || dst == b || sharesData32(dst, a) || sharesData32(dst, b) {
		panic(fmt.Sprintf("tensor: %s dst aliases an operand", op))
	}
}

func sharesData32(x, y *Matrix32) bool {
	return len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]
}

// MatMul32Into stores a @ b into dst (which must not alias a or b) and
// returns dst — the float32 twin of MatMulInto.
func MatMul32Into(dst, a, b *Matrix32) *Matrix32 {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul32Into shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto32(dst, a, b, a.Rows, b.Cols, "MatMul32Into")
	dispatchKernel32(matmul32Rows, a, b, nil, dst, a.Rows, a.Rows*a.Cols*b.Cols)
	return dst
}

// MatMulAddRow32Into stores a @ b + bias into dst, where bias is a
// 1 x b.Cols row added after each output row's accumulation finishes — the
// float32 twin of MatMulAddRowInto, backing the f32 Linear forward.
func MatMulAddRow32Into(dst, a, b, bias *Matrix32) *Matrix32 {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddRow32Into shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddRow32Into bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Cols))
	}
	checkInto32(dst, a, b, a.Rows, b.Cols, "MatMulAddRow32Into")
	dispatchKernel32(matmulAddRow32Rows, a, b, bias, dst, a.Rows, a.Rows*a.Cols*b.Cols)
	return dst
}

func matmul32Rows(a, b, _, out *Matrix32, lo, hi int) {
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		clear(orow)
		axpyRow32(a.Row(i), b, orow)
	}
}

func matmulAddRow32Rows(a, b, bias, out *Matrix32, lo, hi int) {
	brow0 := bias.Data
	for i := lo; i < hi; i++ {
		orow := out.Row(i)
		clear(orow)
		axpyRow32(a.Row(i), b, orow)
		dst := orow[:len(brow0)]
		for j, bv := range brow0 {
			dst[j] += bv
		}
	}
}

// axpyRow32 accumulates arow @ b into orow: four k-rows of b fused per
// pass, adds landing in ascending-k order per output element, zero
// coefficients falling back to the scalar skip loop — the scheme of
// the float64 axpyRows for a single output row, one rounding per float32
// add.
func axpyRow32(arow []float32, b *Matrix32, orow []float32) {
	n := b.Cols
	k := 0
	for ; k+3 < len(arow); k += 4 {
		av0, av1, av2, av3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
		if av0 == 0 || av1 == 0 || av2 == 0 || av3 == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
			axpyScalar32(arow[k:k+4], b, orow, k)
			continue
		}
		b0 := b.Data[k*n : (k+1)*n]
		b1 := b.Data[(k+1)*n : (k+2)*n]
		b2 := b.Data[(k+2)*n : (k+3)*n]
		b3 := b.Data[(k+3)*n : (k+4)*n]
		dst := orow[:len(b0)]
		b1 = b1[:len(b0)]
		b2 = b2[:len(b0)]
		b3 = b3[:len(b0)]
		for j := range dst {
			v := dst[j] + av0*b0[j]
			v += av1 * b1[j]
			v += av2 * b2[j]
			v += av3 * b3[j]
			dst[j] = v
		}
	}
	axpyScalar32(arow[k:], b, orow, k)
}

// axpyScalar32 is the one-k-row-at-a-time tail/fallback with the sparse skip.
func axpyScalar32(avs []float32, b *Matrix32, orow []float32, k0 int) {
	n := b.Cols
	for dk, av := range avs {
		if av == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
			continue
		}
		k := k0 + dk
		brow := b.Data[k*n : (k+1)*n]
		dst := orow[:len(brow)]
		for j, bv := range brow {
			dst[j] += av * bv
		}
	}
}
