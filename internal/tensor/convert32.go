// This file holds the explicit float64 <-> float32 conversion kernels — the
// only place in internal/tensor (and, together with internal/silo/codec,
// the only place in the repository outside //silofuse:precision-ok
// annotated lines) where precision-changing casts are legal. The
// silofuse-vet precisioncast rule pins that boundary, so every narrowing is
// a deliberate, greppable decision rather than an accident of plumbing.
//
//silofuse:precision-ok this file is the tensor side of the conversion boundary
package tensor

import "math/rand"

// ConvertInto32 narrows src into dst (same shape) with IEEE
// round-to-nearest and returns dst.
func ConvertInto32(dst *Matrix32, src *Matrix) *Matrix32 {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: ConvertInto32 shape mismatch")
	}
	dd := dst.Data[:len(src.Data)]
	for i, v := range src.Data {
		dd[i] = float32(v)
	}
	return dst
}

// ConvertInto64 widens src into dst (same shape) and returns dst. Widening
// is exact: every float32 value is representable as a float64.
func ConvertInto64(dst *Matrix, src *Matrix32) *Matrix {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: ConvertInto64 shape mismatch")
	}
	dd := dst.Data[:len(src.Data)]
	for i, v := range src.Data {
		dd[i] = float64(v)
	}
	return dst
}

// To32 returns a freshly allocated float32 copy of m.
func To32(m *Matrix) *Matrix32 {
	return ConvertInto32(New32(m.Rows, m.Cols), m)
}

// To64 returns a freshly allocated float64 copy of m.
func To64(m *Matrix32) *Matrix {
	return ConvertInto64(New(m.Rows, m.Cols), m)
}

// VecTo32 narrows a float64 slice to a fresh float32 slice.
func VecTo32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// Randn32 fills m with std-scaled Gaussian draws narrowed to float32. The
// draws consume exactly one NormFloat64 per element — the same rng stream
// the float64 Randn would consume — so a run that switches precision keeps
// every downstream random decision aligned.
func (m *Matrix32) Randn32(rng *rand.Rand, std float64) *Matrix32 {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
	return m
}
