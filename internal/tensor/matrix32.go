package tensor

import "fmt"

// Matrix32 is the float32 counterpart of Matrix: a dense row-major matrix
// backing the reduced-precision kernel path. It exists for compute paths
// where bit-exactness is not contracted — the diffusion sampling ping-pong
// buffers and the decode-side autoencoder trunk — and is deliberately a
// separate type so float64 code cannot drift into float32 by accident: the
// only bridges between the two worlds are the explicit conversion kernels
// in convert32.go (and the wire codecs in internal/silo/codec), a boundary
// the silofuse-vet precisioncast rule enforces.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 allocates a zeroed rows x cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative shape %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice32 wraps data (not copied) as a rows x cols float32 matrix.
func FromSlice32(rows, cols int, data []float32) *Matrix32 {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: data}
}

// Ensure32 returns m when it already has the requested shape, else a fresh
// zeroed matrix — the float32 twin of Ensure, backing persistent f32
// workspaces.
func Ensure32(m *Matrix32, rows, cols int) *Matrix32 {
	if m != nil && m.Rows == rows && m.Cols == cols {
		return m
	}
	return New32(rows, cols)
}

// Row returns row i as a slice sharing the matrix storage.
func (m *Matrix32) Row(i int) []float32 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns the element at (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix32) Clone() *Matrix32 {
	out := New32(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Add32Into stores a + b elementwise into dst (shapes must match) and
// returns dst.
func Add32Into(dst, a, b *Matrix32) *Matrix32 {
	if a.Rows != b.Rows || a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != a.Cols {
		panic(fmt.Sprintf("tensor: Add32Into shape mismatch %dx%d + %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	bd := b.Data[:len(a.Data)]
	dd := dst.Data[:len(a.Data)]
	for i, av := range a.Data {
		dd[i] = av + bd[i]
	}
	return dst
}
