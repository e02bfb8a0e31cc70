//silofuse:bitwise-ok determinism tests pin bit-reproducible f32 outputs with exact comparisons
package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// The f32 kernels promise the same determinism contract as the f64 ones:
// a fixed ascending-k reduction order per output element, so serial and
// pooled execution are bit-identical and a naive triple loop in the same
// order is the exact reference.

func randMat32(rng *rand.Rand, rows, cols int) *Matrix32 {
	return New32(rows, cols).Randn32(rng, 1)
}

// naiveMatMul32 accumulates one k-row at a time in ascending order — the
// reduction order every optimised f32 kernel must reproduce exactly.
func naiveMatMul32(a, b *Matrix32) *Matrix32 {
	out := New32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		arow := a.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func assertSameBits32(t *testing.T, op string, want, got *Matrix32) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", op, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: bit mismatch at %d: %v vs %v", op, i, want.Data[i], got.Data[i])
		}
	}
}

func TestMatMul32IntoMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	shapes := []struct{ m, k, n int }{{1, 1, 1}, {3, 5, 7}, {17, 9, 4}, {33, 40, 21}}
	for _, sh := range shapes {
		a, b := randMat32(rng, sh.m, sh.k), randMat32(rng, sh.k, sh.n)
		// Sprinkle zeros to exercise the sparse skip path.
		for i := 0; i < len(a.Data); i += 5 {
			a.Data[i] = 0
		}
		dst := New32(sh.m, sh.n)
		for i := range dst.Data {
			dst.Data[i] = 99 // dirty: kernels must not depend on zeroed dst
		}
		assertSameBits32(t, "MatMul32Into", naiveMatMul32(a, b), MatMul32Into(dst, a, b))
	}
}

func TestMatMulAddRow32IntoMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a, b := randMat32(rng, 19, 23), randMat32(rng, 23, 11)
	bias := randMat32(rng, 1, 11)
	want := naiveMatMul32(a, b)
	for i := 0; i < want.Rows; i++ {
		row := want.Row(i)
		for j, bv := range bias.Data {
			row[j] += bv
		}
	}
	got := MatMulAddRow32Into(New32(19, 11), a, b, bias)
	assertSameBits32(t, "MatMulAddRow32Into", want, got)
}

// TestPooled32MatchesSerial runs a matrix big enough to cross
// parallelThreshold and checks the pooled result is bit-identical to a
// serial kernel invocation.
func TestPooled32MatchesSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(22))
	a, b := randMat32(rng, 96, 96), randMat32(rng, 96, 96)
	bias := randMat32(rng, 1, 96)

	serial := New32(96, 96)
	matmul32Rows(a, b, nil, serial, 0, 96)
	assertSameBits32(t, "pooled MatMul32Into", serial, MatMul32Into(New32(96, 96), a, b))

	serialFused := New32(96, 96)
	matmulAddRow32Rows(a, b, bias, serialFused, 0, 96)
	assertSameBits32(t, "pooled fused32", serialFused, MatMulAddRow32Into(New32(96, 96), a, b, bias))
}

func TestConvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := New(13, 7).Randn(rng, 3)
	m32 := To32(m)
	back := To64(m32)
	for i, v := range m.Data {
		// Narrowing is round-to-nearest: within half a ULP relative.
		if d := math.Abs(back.Data[i] - v); d > math.Abs(v)*math.Exp2(-24)*1.000001 {
			t.Fatalf("round trip error %g at %g exceeds half-ULP bound", d, v)
		}
	}
	// Widening an f32 matrix and narrowing again is lossless.
	again := To32(back)
	for i := range m32.Data {
		if math.Float32bits(again.Data[i]) != math.Float32bits(m32.Data[i]) {
			t.Fatalf("widen+narrow not lossless at %d", i)
		}
	}
}

// TestSteadyState32KernelAllocs pins the zero-allocation contract for the f32
// kernels and conversion kernels.
func TestSteadyState32KernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a, b := randMat32(rng, 64, 64), randMat32(rng, 64, 64)
	bias := randMat32(rng, 1, 64)
	dst := New32(64, 64)
	src64 := New(64, 64).Randn(rng, 1)
	dst64 := New(64, 64)
	checks := map[string]func(){
		"MatMul32Into":       func() { MatMul32Into(dst, a, b) },
		"MatMulAddRow32Into": func() { MatMulAddRow32Into(dst, a, b, bias) },
		"Add32Into":          func() { Add32Into(dst, a, b) },
		"ConvertInto32":      func() { ConvertInto32(dst, src64) },
		"ConvertInto64":      func() { ConvertInto64(dst64, a) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}
