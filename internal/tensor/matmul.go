package tensor

import "fmt"

// A kernel spreads its range across the persistent worker pool once its work
// clears a threshold; below it the 27 µs a dispatch costs
// (BenchmarkDispatchOverhead) outweigh what the second core saves.
const (
	// parallelThreshold counts elements of the elementwise, optimiser and
	// loss kernels and multiply-adds of the Go-loop matmuls (a@bᵀ, float32).
	parallelThreshold = 1 << 16
	// matmulParallelThreshold counts multiply-adds of the accumulating
	// matmuls on the assembly tiers, whose tile and axpy kernels run them
	// several times faster than the Go loops the first constant was set for
	// (and still holds for: dispatchMatmul).
	matmulParallelThreshold = 1 << 20
)

// Every kernel in this file keeps a fixed per-output-row reduction order,
// so serial, pooled, and destination-passing execution are bit-identical.
// The accumulation kernels (matmulRows, matmulT1Cols, matmulAddRowRows)
// clear the destination rows they own before accumulating, which makes the
// Into variants safe on dirty destination buffers at no cost on fresh ones.

func checkInto(dst, a, b *Matrix, rows, cols int, op string) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("tensor: %s dst shape %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
	if dst == a || dst == b || sharesData(dst, a) || sharesData(dst, b) {
		panic(fmt.Sprintf("tensor: %s dst aliases an operand", op))
	}
}

func sharesData(x, y *Matrix) bool {
	return len(x.Data) > 0 && len(y.Data) > 0 && &x.Data[0] == &y.Data[0]
}

// MatMul returns a @ b. The inner loops are ordered i-k-j so the b matrix is
// streamed row-wise (cache friendly), and independent row blocks of the
// output are computed on the persistent worker pool. Per-row reduction order
// is fixed, so results are bit-identical regardless of parallelism.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	dispatchMatmul(matmulRows, a, b, nil, out, a.Rows, a.Rows*a.Cols*b.Cols)
	return out
}

// MatMulInto stores a @ b into dst (which must not alias a or b) and
// returns dst. It is the allocation-free form of MatMul: same kernel, same
// reduction order, same bits.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto(dst, a, b, a.Rows, b.Cols, "MatMulInto")
	dispatchMatmul(matmulRows, a, b, nil, dst, a.Rows, a.Rows*a.Cols*b.Cols)
	return dst
}

// MatMulAddRowInto stores a @ b + bias into dst, where bias is a 1 x b.Cols
// row added to every output row after that row's accumulation finishes —
// exactly the arithmetic of MatMul followed by AddRowVector, fused into one
// pass over the output. dst must not alias a or b.
func MatMulAddRowInto(dst, a, b, bias *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulAddRowInto shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias.Rows != 1 || bias.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAddRowInto bias shape %dx%d, want 1x%d", bias.Rows, bias.Cols, b.Cols))
	}
	checkInto(dst, a, b, a.Rows, b.Cols, "MatMulAddRowInto")
	dispatchMatmul(matmulAddRowRows, a, b, bias, dst, a.Rows, a.Rows*a.Cols*b.Cols)
	return dst
}

func matmulRows(a, b, _, out *Matrix, lo, hi int) { matmulRange(a, b, out, nil, nil, lo, hi, false) }

func matmulAddRowRows(a, b, bias, out *Matrix, lo, hi int) {
	matmulRange(a, b, out, bias.Data, nil, lo, hi, false)
}

// addRowRange finishes output rows [lo, hi), each of which has finished
// accumulating: it adds the row vector, -0 read as +0, or +0 where there is
// none. It is the last add wherever the tile's store does not make it: the
// axpy tiers, and the rows the tile leaves to them. Because the addend is
// never -0, no product stores -0 (tile.go, "Bits").
func addRowRange(out *Matrix, row []float64, lo, hi int) {
	if row == nil {
		dst := out.Data[lo*out.Cols : hi*out.Cols]
		for j := range dst {
			dst[j] += 0
		}
		return
	}
	for i := lo; i < hi; i++ {
		dst := out.Row(i)[:len(row)]
		for j, v := range row {
			dst[j] += v + 0
		}
	}
}

// rowBlock is how many output rows share one sweep over b. With the inner
// loop vectorised, a row-at-a-time sweep is bound by streaming b from L2 (or
// memory, for the 2964-wide decoder head) once per output row; a block reads
// each group of four b rows once for all its rows while they stay
// cache-resident. The order of adds within an output element does not change.
const rowBlock = 8

// axpyRows stores a[i0:i1] @ b into out rows [i0, i1). Four k-rows of b are
// fused per axpy4 pass so an output row is loaded and stored once per four
// inputs. Per output element the adds land in ascending-k order starting
// from +0, and any zero coefficient in a group falls back to the
// one-row-at-a-time skip loop for that row, so the result is bit-identical
// to one row and one k at a time.
func axpyRows(a, b, out *Matrix, i0, i1 int) {
	n, kw := b.Cols, a.Cols
	clear(out.Data[i0*n : i1*n])
	k := 0
	for ; k+3 < kw; k += 4 {
		rows := b.Data[k*n : (k+4)*n]
		b0, b1, b2, b3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
		for i := i0; i < i1; i++ {
			avs := a.Data[i*kw+k : i*kw+k+4]
			orow := out.Data[i*n : (i+1)*n]
			av0, av1, av2, av3 := avs[0], avs[1], avs[2], avs[3]
			if av0 == 0 || av1 == 0 || av2 == 0 || av3 == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
				axpyScalar(avs, b, orow, k)
				continue
			}
			axpy4(orow, b0, b1, b2, b3, av0, av1, av2, av3)
		}
	}
	for i := i0; i < i1; i++ {
		axpyScalar(a.Data[i*kw+k:(i+1)*kw], b, out.Data[i*n:(i+1)*n], k)
	}
}

// axpyScalar is the one-k-row-at-a-time tail/fallback with the sparse skip.
func axpyScalar(avs []float64, b *Matrix, orow []float64, k0 int) {
	n := b.Cols
	for dk, av := range avs {
		if av == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
			continue
		}
		k := k0 + dk
		axpy1(orow, b.Data[k*n:(k+1)*n], av)
	}
}

// MatMulT1 returns aᵀ @ b without materialising the transpose.
func MatMulT1(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT1 shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	dispatchMatmul(matmulT1Cols, a, b, nil, out, a.Cols, a.Rows*a.Cols*b.Cols)
	return out
}

// MatMulT1Into stores aᵀ @ b into dst (which must not alias a or b) and
// returns dst.
func MatMulT1Into(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT1Into shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto(dst, a, b, a.Cols, b.Cols, "MatMulT1Into")
	dispatchMatmul(matmulT1Cols, a, b, nil, dst, a.Cols, a.Rows*a.Cols*b.Cols)
	return dst
}

// matmulT1Cols stores aᵀ@b for output rows [lo, hi).
func matmulT1Cols(a, b, _, out *Matrix, lo, hi int) { matmulRange(a, b, out, nil, nil, lo, hi, true) }

// matmulT1Axpy accumulates aᵀ@b for output rows [lo, hi) on the axpy
// kernels. Four r-rows are fused per axpy4 pass (same scheme as axpyRows:
// ascending-r adds per output element, one-row skip fallback on zeros), so
// the b rows stay cache-hot across the whole i sweep.
func matmulT1Axpy(a, b, out *Matrix, lo, hi int) {
	n := b.Cols
	clear(out.Data[lo*n : hi*n])
	r := 0
	for ; r+3 < a.Rows; r += 4 {
		a0, a1, a2, a3 := a.Row(r), a.Row(r+1), a.Row(r+2), a.Row(r+3)
		rows := b.Data[r*n : (r+4)*n]
		b0, b1, b2, b3 := rows[:n], rows[n:2*n], rows[2*n:3*n], rows[3*n:]
		for i := lo; i < hi; i++ {
			av0, av1, av2, av3 := a0[i], a1[i], a2[i], a3[i]
			orow := out.Data[i*n : (i+1)*n]
			if av0 == 0 || av1 == 0 || av2 == 0 || av3 == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
				matmulT1Scalar(a, b, orow, i, r, r+4)
				continue
			}
			axpy4(orow, b0, b1, b2, b3, av0, av1, av2, av3)
		}
	}
	for i := lo; i < hi; i++ {
		matmulT1Scalar(a, b, out.Data[i*n:(i+1)*n], i, r, a.Rows)
	}
}

// matmulT1Scalar accumulates rows [r0, r1) of a into output row i, one at a
// time with the sparse skip.
func matmulT1Scalar(a, b *Matrix, orow []float64, i, r0, r1 int) {
	n := b.Cols
	for r := r0; r < r1; r++ {
		av := a.Row(r)[i]
		if av == 0 { //silofuse:bitwise-ok zero-skip sparsity fast path
			continue
		}
		axpy1(orow, b.Data[r*n:(r+1)*n], av)
	}
}

// MatMulT2 returns a @ bᵀ without materialising the transpose.
func MatMulT2(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2 shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	dispatchMatmul(matmulT2Rows, a, b, nil, out, a.Rows, a.Rows*a.Cols*b.Rows)
	return out
}

// MatMulT2Into stores a @ bᵀ into dst (which must not alias a or b) and
// returns dst.
func MatMulT2Into(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT2Into shape mismatch %dx%d, %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkInto(dst, a, b, a.Rows, b.Rows, "MatMulT2Into")
	dispatchMatmul(matmulT2Rows, a, b, nil, dst, a.Rows, a.Rows*a.Cols*b.Rows)
	return dst
}

// matmulT2Rows computes a@bᵀ rows [lo, hi) on the kernels of a product whose
// bᵀ exists only as b (matmulRangeT): on the tile from panels of bᵀ that each
// chunk packs from b's rows, and elsewhere one element at a time. Its bits
// are every other product's.
func matmulT2Rows(a, b, _, out *Matrix, lo, hi int) { matmulRangeT(a, b, out, nil, nil, lo, hi) }
