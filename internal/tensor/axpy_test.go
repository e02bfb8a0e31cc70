//silofuse:bitwise-ok the assembly must reproduce the Go reference bit for bit
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// axpyLens covers the empty slice, every scalar-tail length, both sides of
// the 4- and 8-wide vector steps, the backbone width and the churn silo's
// one-hot width.
var axpyLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 33, 255, 256, 257, 2932}

// axpyEdge returns a value drawn from ordinary normals mixed with the
// special cases whose handling differs between a careless vector kernel and
// the scalar loop: signed zeros, subnormals, infinities and NaN.
func axpyEdge(rng *rand.Rand) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 3:
		return -math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
	case 4:
		return math.Inf(1)
	case 5:
		return math.Inf(-1)
	case 6:
		return math.NaN()
	case 7:
		return rng.NormFloat64() * 1e-160 // products underflow to subnormals
	default:
		return rng.NormFloat64()
	}
}

// axpyOperand returns an n-slice that starts at an odd element offset of its
// backing array, so vector loads and stores are never 32-byte aligned.
func axpyOperand(rng *rand.Rand, n int, edge bool) []float64 {
	buf := make([]float64, n+3)
	s := buf[1+2*rng.Intn(2):][:n]
	for i := range s {
		if edge {
			s[i] = axpyEdge(rng)
		} else {
			s[i] = rng.NormFloat64()
		}
	}
	return s
}

// assertSameFloats requires equal bits, except that two NaNs match whatever
// their payload: x86 propagates the payload of the first source operand,
// and which operand comes first in the compiled Go loop is the compiler's
// choice, not part of the arithmetic.
func assertSameFloats(t *testing.T, op string, want, got []float64) {
	t.Helper()
	for j := range want {
		if math.Float64bits(want[j]) != math.Float64bits(got[j]) && !(math.IsNaN(want[j]) && math.IsNaN(got[j])) {
			t.Fatalf("%s: element %d of %d: reference %v (%#x), kernel %v (%#x)",
				op, j, len(want), want[j], math.Float64bits(want[j]), got[j], math.Float64bits(got[j]))
		}
	}
}

// TestAxpyMatchesGoReference is the bit-equality property of the assembly:
// for every length, unaligned operands and special values included, axpy4
// and axpy1 must leave exactly what the Go loops leave.
func TestAxpyMatchesGoReference(t *testing.T) {
	if kernelTier == tierGo {
		t.Skip("no AVX2 kernel in use (CPU without AVX2, non-amd64, or -tags purego): axpy4/axpy1 are the Go reference itself")
	}
	rng := rand.New(rand.NewSource(30))
	for _, n := range axpyLens {
		for round := 0; round < 8; round++ {
			edge := round%2 == 1
			coef := func() float64 {
				if edge {
					return axpyEdge(rng)
				}
				return rng.NormFloat64()
			}
			b0, b1 := axpyOperand(rng, n, edge), axpyOperand(rng, n, edge)
			b2, b3 := axpyOperand(rng, n, edge), axpyOperand(rng, n, edge)
			a0, a1, a2, a3 := coef(), coef(), coef(), coef()
			want := axpyOperand(rng, n, edge)
			got := axpyOperand(rng, n, false)
			copy(got, want)
			axpy4Go(want, b0, b1, b2, b3, a0, a1, a2, a3)
			axpy4(got, b0, b1, b2, b3, a0, a1, a2, a3)
			assertSameFloats(t, fmt.Sprintf("axpy4 n=%d", n), want, got)

			copy(got, want)
			axpy1Go(want, b0, a0)
			axpy1(got, b0, a0)
			assertSameFloats(t, fmt.Sprintf("axpy1 n=%d", n), want, got)
		}
	}
}

// TestAxpyStaysInsideDst proves len(dst) alone bounds the kernels: operands
// may be longer, and the element after the destination is left alone.
func TestAxpyStaysInsideDst(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range axpyLens {
		b := axpyOperand(rng, n+5, false)
		buf := axpyOperand(rng, n+1, false)
		guard := buf[n]
		axpy4(buf[:n], b, b, b, b, 1, 2, 3, 4)
		axpy1(buf[:n], b, 5)
		if buf[n] != guard {
			t.Fatalf("n=%d: element past dst changed", n)
		}
	}
}

// BenchmarkAxpy4 compares the Go loop with the dispatched kernel at the
// backbone width and the churn silo's one-hot width.
func BenchmarkAxpy4(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{256, 2932} {
		rows := randMat(rng, 5, n) // matrix rows, aligned as the kernels' operands are
		dst, b0, b1, b2, b3 := rows.Row(0), rows.Row(1), rows.Row(2), rows.Row(3), rows.Row(4)
		run := func(name string, kern func(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64)) {
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					kern(dst, b0, b1, b2, b3, 1e-3, -1e-3, 1e-3, -1e-3)
				}
			})
		}
		run("go", axpy4Go)
		if kernelTier != tierGo {
			run("avx2", axpy4)
		}
	}
}
