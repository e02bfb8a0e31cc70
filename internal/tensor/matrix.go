// Package tensor provides a small dense float64 matrix engine used by all
// neural components in this repository. It is deliberately minimal: row-major
// 2-D matrices, a handful of BLAS-like kernels with goroutine parallelism,
// and seeded random initialisation. Shapes are checked eagerly; shape errors
// are programming errors and panic.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zero-filled matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d (len %d, want %d)", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Data[i*m.Cols+j]
	}
	return out
}

// SetCol overwrites column j with v.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic(fmt.Sprintf("tensor: SetCol length %d != rows %d", len(v), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// SameShape reports whether m and o have identical dimensions.
func (m *Matrix) SameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func (m *Matrix) assertSameShape(o *Matrix, op string) {
	if !m.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, m.Rows, m.Cols, o.Rows, o.Cols))
	}
}

// Fill sets every element to v and returns m.
func (m *Matrix) Fill(v float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = v
	}
	return m
}

// Zero resets every element to 0 and returns m.
func (m *Matrix) Zero() *Matrix { return m.Fill(0) }

// Randn fills m with N(0, std^2) samples drawn from rng and returns m.
func (m *Matrix) Randn(rng *rand.Rand, std float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// RandUniform fills m with uniform samples in [lo, hi) and returns m.
func (m *Matrix) RandUniform(rng *rand.Rand, lo, hi float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = lo + rng.Float64()*(hi-lo)
	}
	return m
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix { return TransposeInto(New(m.Cols, m.Rows), m) }

// Add stores a+b into m (m may alias a or b) and returns m.
func (m *Matrix) Add(a, b *Matrix) *Matrix {
	a.assertSameShape(b, "Add")
	m.assertSameShape(a, "Add")
	for i := range m.Data {
		m.Data[i] = a.Data[i] + b.Data[i]
	}
	return m
}

// Sub stores a-b into m and returns m.
func (m *Matrix) Sub(a, b *Matrix) *Matrix {
	a.assertSameShape(b, "Sub")
	m.assertSameShape(a, "Sub")
	for i := range m.Data {
		m.Data[i] = a.Data[i] - b.Data[i]
	}
	return m
}

// MulElem stores the Hadamard product a*b into m and returns m.
func (m *Matrix) MulElem(a, b *Matrix) *Matrix {
	a.assertSameShape(b, "MulElem")
	m.assertSameShape(a, "MulElem")
	for i := range m.Data {
		m.Data[i] = a.Data[i] * b.Data[i]
	}
	return m
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddScaled adds s*o to m in place and returns m.
func (m *Matrix) AddScaled(o *Matrix, s float64) *Matrix {
	m.assertSameShape(o, "AddScaled")
	for i := range m.Data {
		m.Data[i] += s * o.Data[i]
	}
	return m
}

// AddRowVector adds the length-Cols vector v to every row in place.
func (m *Matrix) AddRowVector(v []float64) *Matrix {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: AddRowVector length %d != cols %d", len(v), m.Cols))
	}
	addRowRange(m, v, 0, m.Rows)
	return m
}

// Sum returns the sum of all elements.
func (m *Matrix) Sum() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements (0 for empty matrices).
func (m *Matrix) Mean() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	return m.Sum() / float64(len(m.Data))
}

// ColSums returns the per-column sums as a length-Cols slice.
func (m *Matrix) ColSums() []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
	return out
}

// Norm returns the Frobenius norm of m.
func (m *Matrix) Norm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// MaxAbs returns the maximum absolute element value (0 for empty matrices).
func (m *Matrix) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// HStack concatenates matrices column-wise. All inputs must share the same
// number of rows. It mirrors the paper's X = X1 || X2 || ... || XM operator.
func HStack(parts ...*Matrix) *Matrix {
	if len(parts) == 0 {
		return New(0, 0)
	}
	cols := 0
	for _, p := range parts {
		cols += p.Cols
	}
	return HStackInto(New(parts[0].Rows, cols), parts...)
}

// VStack concatenates matrices row-wise. All inputs must share column count.
func VStack(parts ...*Matrix) *Matrix {
	if len(parts) == 0 {
		return New(0, 0)
	}
	cols := parts[0].Cols
	rows := 0
	for _, p := range parts {
		if p.Cols != cols {
			panic(fmt.Sprintf("tensor: VStack col mismatch %d vs %d", p.Cols, cols))
		}
		rows += p.Rows
	}
	out := New(rows, cols)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return out
}

// SliceCols returns a copy of columns [lo, hi).
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: SliceCols [%d,%d) out of range for %d cols", lo, hi, m.Cols))
	}
	return m.SliceColsInto(New(m.Rows, hi-lo), lo)
}

// SliceRows returns a copy of rows [lo, hi).
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: SliceRows [%d,%d) out of range for %d rows", lo, hi, m.Rows))
	}
	out := New(hi-lo, m.Cols)
	copy(out.Data, m.Data[lo*m.Cols:hi*m.Cols])
	return out
}

// GatherRows returns a copy of the rows selected by idx, in order.
func (m *Matrix) GatherRows(idx []int) *Matrix {
	out := New(len(idx), m.Cols)
	for i, r := range idx {
		copy(out.Row(i), m.Row(r))
	}
	return out
}

// String renders a compact debug representation.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
