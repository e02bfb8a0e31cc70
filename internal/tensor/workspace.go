package tensor

import "fmt"

// Workspace-reuse primitives. Layers and training loops keep *Matrix (or
// slice) fields that are lazily sized on first use and reused verbatim on
// every later call with the same shape — the steady-state path performs no
// allocation, and a shape change simply falls back to a fresh buffer (the
// cold-start path, identical to the old allocating code).

// Ensure returns m when it already has shape rows x cols, else a fresh
// zero matrix of that shape. The contents of a reused m are NOT cleared;
// callers that accumulate into the buffer must clear it themselves (the
// Into kernels in this package already do).
func Ensure(m *Matrix, rows, cols int) *Matrix {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	return New(rows, cols)
}

// EnsureVec returns v when it already has length n, else a fresh zero
// slice of that length.
func EnsureVec(v []float64, n int) []float64 {
	if len(v) == n {
		return v
	}
	return make([]float64, n)
}

// EnsureInts returns v when it already has length n, else a fresh zero
// slice of that length.
func EnsureInts(v []int, n int) []int {
	if len(v) == n {
		return v
	}
	return make([]int, n)
}

// CopyInto copies src into dst (shapes must match) and returns dst.
func CopyInto(dst, src *Matrix) *Matrix {
	dst.assertSameShape(src, "CopyInto")
	copy(dst.Data, src.Data)
	return dst
}

// TransposeInto stores mᵀ into dst, which must be m.Cols x m.Rows and must
// not alias m, and returns dst. The copy walks square tiles so both the
// row-wise reads and the column-wise writes stay within a few cache lines
// per tile, which is what keeps a per-step weight transpose cheap next to
// the matmul that consumes it. Bands of source rows go to the worker pool
// once the matrix clears parallelThreshold elements; every element is a
// plain copy, so the split cannot change the result.
func TransposeInto(dst, m *Matrix) *Matrix {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TransposeInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, m.Cols, m.Rows))
	}
	if sharesData(dst, m) {
		panic("tensor: TransposeInto dst aliases its operand")
	}
	dispatchKernel(transposeRows, m, nil, nil, dst, m.Rows, len(m.Data))
	return dst
}

// transposeRows writes rows [lo, hi) of m into the matching columns of dst.
func transposeRows(m, _, _, dst *Matrix, lo, hi int) {
	const tile = 32
	for i0 := lo; i0 < hi; i0 += tile {
		i1 := min(i0+tile, hi)
		for j0 := 0; j0 < m.Cols; j0 += tile {
			j1 := min(j0+tile, m.Cols)
			for i := i0; i < i1; i++ {
				for j, v := range m.Data[i*m.Cols+j0 : i*m.Cols+j1] {
					dst.Data[(j0+j)*m.Rows+i] = v
				}
			}
		}
	}
}

// GatherRowsInto copies the rows of m selected by idx into dst, in order.
// dst must be len(idx) x m.Cols.
func (m *Matrix) GatherRowsInto(dst *Matrix, idx []int) *Matrix {
	if dst.Rows != len(idx) || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: GatherRowsInto dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, len(idx), m.Cols))
	}
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
	return dst
}

// HStackInto stores the column-wise concatenation of parts into dst, which
// must have their common row count and the sum of their widths, and returns
// dst: HStack into a workspace.
func HStackInto(dst *Matrix, parts ...*Matrix) *Matrix {
	cols := 0
	for _, p := range parts {
		if p.Rows != dst.Rows {
			panic(fmt.Sprintf("tensor: HStack row mismatch %d vs %d", p.Rows, dst.Rows))
		}
		cols += p.Cols
	}
	if cols != dst.Cols {
		panic(fmt.Sprintf("tensor: HStackInto dst has %d cols, parts %d", dst.Cols, cols))
	}
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		off := 0
		for _, p := range parts {
			copy(row[off:], p.Row(i))
			off += p.Cols
		}
	}
	return dst
}

// SliceColsInto copies columns [lo, lo+dst.Cols) of m into dst, which must
// have m's row count, and returns dst: SliceCols into a workspace.
func (m *Matrix) SliceColsInto(dst *Matrix, lo int) *Matrix {
	if dst.Rows != m.Rows || lo < 0 || lo+dst.Cols > m.Cols {
		panic(fmt.Sprintf("tensor: SliceColsInto %dx%d at column %d out of range for %dx%d", dst.Rows, dst.Cols, lo, m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[lo:lo+dst.Cols])
	}
	return dst
}

// ColSumsInto accumulates the per-column sums of m into out, which must
// have length Cols and is cleared first. Summation order matches ColSums.
func (m *Matrix) ColSumsInto(out []float64) []float64 {
	if len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSumsInto length %d != cols %d", len(out), m.Cols))
	}
	clear(out)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}
