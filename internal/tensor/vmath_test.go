//silofuse:bitwise-ok the lane kernels must reproduce the scalar expressions bit for bit
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// mulAdd is the expression a compiler may contract into one fused
// multiply-add, and mulThenAdd the same arithmetic with the explicit conversion
// that, by the language specification, forbids it. Separate functions that are
// not inlined, so that neither shares its product with the other.
//
//go:noinline
func mulAdd(x, y, z float64) float64 { return x*y + z }

//go:noinline
func mulThenAdd(x, y, z float64) float64 { return float64(x*y) + z }

// goFusesMulAdd reports whether this toolchain contracts x*y + z on this
// target. x*y is 1 + 2^-29 + 2^-60, which rounds to 1 + 2^-29: the sum with
// -(1 + 2^-29) is 0 from a rounded multiply and a rounded add, and 2^-60 from
// one fused multiply-add.
func goFusesMulAdd() bool {
	x, z := 1+0x1p-30, -(1 + 0x1p-29)
	return mulAdd(x, x, z) != mulThenAdd(x, x, z)
}

// TestGoDoesNotFuseMulAdd states the assumption every cross-tier bit-identity
// test in this package rests on: where the Go loops write x*y + z without
// math.FMA (erf's x + x·y, the GELU and Adam expressions, and math.Exp's own
// Go fallback), they round x*y and then the sum, as the assembly's separate
// VMULPD/VADDPD do. The language allows fusing; the amd64 compiler does not do
// it (go1.24, at GOAMD64=v1 and v3 alike — v3 only makes math.FMA an
// instruction), the arm64, ppc64, s390x and riscv64 compilers do. Where it is
// fused the Go loops are still the whole kernel and agree with themselves, but
// not with an amd64 machine.
func TestGoDoesNotFuseMulAdd(t *testing.T) {
	skipIfGoFuses(t)
	if got := mulAdd(1+0x1p-30, 1+0x1p-30, -(1 + 0x1p-29)); got != 0 {
		t.Fatalf("x*y + z = %g, want 0", got)
	}
}

// skipIfGoFuses skips a test that holds assembly, or the standard library,
// against compiled Go arithmetic where the two legitimately differ.
func skipIfGoFuses(t testing.TB) {
	t.Helper()
	if goFusesMulAdd() {
		t.Skipf("this toolchain fuses x*y + z on %s: the Go loops and math.Erf round once where the assembly rounds twice — cross-tier and cross-machine bit-identity is a property of builds that do not (amd64 at GOAMD64=v1)", runtime.GOARCH)
	}
}

// eachTier runs f with the kernels forced onto every tier in turn, skipping
// the ones this CPU or build lacks.
func eachTier(t *testing.T, f func(t *testing.T)) {
	skipIfGoFuses(t)
	for _, tr := range allTiers {
		t.Run(tr.String(), func(t *testing.T) {
			forceTier(t, tr)
			if tr == tierAVX512 && !lanesMatch {
				t.Skip("exp8 is not this process's math.Exp (GODEBUG=cpu.fma=off, or a math.Exp this kernel does not mirror): exp, erf and GELU run the Go loops on this tier")
			}
			f(t)
		})
	}
}

// around returns x and the 2·ulps doubles nearest to it, ulps on each side.
func around(x float64, ulps int) []float64 {
	out := make([]float64, 0, 2*ulps+1)
	lo := x
	for i := 0; i < ulps; i++ {
		lo = math.Nextafter(lo, math.Inf(-1))
	}
	for i := 0; i <= 2*ulps; i++ {
		out = append(out, lo)
		lo = math.Nextafter(lo, math.Inf(1))
	}
	return out
}

// laneSpecials are the inputs a lane kernel answers off its straight-line
// path, or on the last value before it: zeros, subnormals, the extremes, NaN.
func laneSpecials() []float64 {
	zero := 0.0
	return []float64{
		zero, -zero, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1022, -0x1p-1022, 0x1p-1023, 2.848094538889218e-306, -2.848094538889218e-306,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
	}
}

// everyBinade returns, for every exponent a double can have, a power of two, a
// mid-binade value and a random mantissa, in both signs.
func everyBinade(rng *rand.Rand) []float64 {
	var out []float64
	for e := -1074; e <= 1023; e++ {
		for _, m := range []float64{1, 1.5, 1 + rng.Float64()} {
			v := math.Ldexp(m, e)
			if !math.IsInf(v, 0) {
				out = append(out, v, -v)
			}
		}
	}
	return out
}

// laneRandomCount is the number of random inputs per scale: seven scales make
// the issue's 10^7. The race detector slows the scalar reference thirty-fold,
// and finds nothing in straight-line float arithmetic, so it gets a sample.
func laneRandomCount() int {
	if raceEnabled || testing.Short() {
		return 1 << 14
	}
	return 3 << 19
}

// checkLanes runs kern over in at once, and again window by window at every
// length 0..17 from odd offsets with guards either side, and requires ref's
// bits (any NaN for a NaN) from both.
func checkLanes(t *testing.T, name string, in []float64, kern, ref func(dst, x []float64)) {
	t.Helper()
	want, got := make([]float64, len(in)), make([]float64, len(in))
	ref(want, in)
	kern(got, in)
	assertSameFloats(t, name, want, got)
	const guard = 1234.5
	buf := make([]float64, 17+4)
	for n := 0; n <= 17 && n <= len(in); n++ {
		for off := 0; off+n <= len(in); off += 1 + len(in)/61 {
			for i := range buf {
				buf[i] = guard
			}
			dst := buf[3 : 3+n]
			kern(dst, in[off:off+n])
			assertSameFloats(t, fmt.Sprintf("%s n=%d off=%d", name, n, off), want[off:off+n], dst)
			if buf[2] != guard || buf[3+n] != guard {
				t.Fatalf("%s n=%d off=%d: element outside dst changed", name, n, off)
			}
		}
	}
}

// checkLanesRandom holds kern to ref on count inputs drawn by draw, a buffer
// at a time.
func checkLanesRandom(t *testing.T, name string, count int, draw func() float64, kern, ref func(dst, x []float64)) {
	t.Helper()
	const chunk = 1 << 14
	in, want, got := make([]float64, chunk), make([]float64, chunk), make([]float64, chunk)
	for done := 0; done < count; done += chunk {
		for i := range in {
			in[i] = draw()
		}
		ref(want, in)
		kern(got, in)
		assertSameFloats(t, name, want, got)
	}
}

// erfSweep returns erf's test inputs: every binade, 2,048 ulps either side of
// every branch seam, the special values, and vectors whose lanes each take a
// different branch.
func erfSweep(rng *rand.Rand) []float64 {
	in := append(laneSpecials(), everyBinade(rng)...)
	for _, seam := range []float64{0x1p-28, 0.84375, 1.25, 1 / 0.35, 6, 2.848094538889218e-306} {
		for _, v := range around(seam, 2048) {
			in = append(in, v, -v)
		}
	}
	// Mixed vectors: consecutive lanes from different branches, so every
	// blend mask occurs, with and without a lane the kernel hands back.
	classes := []func() float64{
		func() float64 { return rng.Float64() * 0.84375 },
		func() float64 { return 0.84375 + rng.Float64()*(1.25-0.84375) },
		func() float64 { return 1.25 + rng.Float64()*(1/0.35-1.25) },
		func() float64 { return 1/0.35 + rng.Float64()*(6-1/0.35) },
		func() float64 { return 6 + rng.Float64()*30 },
		func() float64 { return rng.Float64() * 0x1p-28 },
		math.NaN,
	}
	for i := 0; i < 1<<14; i++ {
		c := classes[rng.Intn(len(classes)-rng.Intn(3))] // the last two are rarer
		in = append(in, math.Copysign(c(), rng.NormFloat64()))
	}
	return in
}

// erfScales are the standard deviations of erf's random inputs: the scales
// GELU sees and beyond.
var erfScales = []float64{0.05, 0.3, invSqrt2, 1, 2, 4, 1e-8}

// TestErfLanesMatchStdlib is the bit-equality property of the erf kernel
// against the Go erf (math/erf.go with fused Horner steps, which
// TestErfWithinAnUlpOfStdlib holds to math.Erf): erfSweep's inputs at every
// length and offset, and 10^7 random inputs over erfScales.
func TestErfLanesMatchStdlib(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(60))
		checkLanes(t, "erf", erfSweep(rng), erfLanes, erfGo)
		for _, scale := range erfScales {
			checkLanesRandom(t, fmt.Sprintf("erf scale %g", scale), laneRandomCount(),
				func() float64 { return rng.NormFloat64() * scale }, erfLanes, erfGo)
		}
	})
}

// ulps is how many doubles lie between a and b (0 for equal bits, and for two
// NaNs); -0 and +0 are one apart.
func ulps(a, b float64) uint64 {
	if math.IsNaN(a) && math.IsNaN(b) {
		return 0
	}
	// Map the doubles onto the integers in their order.
	key := func(v float64) int64 {
		bits := int64(math.Float64bits(v))
		if bits < 0 {
			return math.MinInt64 - bits - 1
		}
		return bits
	}
	d := key(a) - key(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// TestErfWithinAnUlpOfStdlib pins what fusing erf's Horner steps cost: over
// the inputs the lane kernel is held to it on, the Go erf is within one ulp
// of math.Erf. It says nothing about the kernel, whose test stays bit for
// bit.
func TestErfWithinAnUlpOfStdlib(t *testing.T) {
	skipIfGoFuses(t)
	rng := rand.New(rand.NewSource(60))
	in := erfSweep(rng)
	for _, scale := range erfScales {
		for i := 0; i < laneRandomCount(); i++ {
			in = append(in, rng.NormFloat64()*scale)
		}
	}
	moved := 0
	for _, v := range in {
		got, want := erf(v), math.Erf(v)
		if d := ulps(got, want); d > 1 {
			t.Fatalf("erf(%v) = %v (%#x), math.Erf %v (%#x): %d ulps apart", v, got, math.Float64bits(got), want, math.Float64bits(want), d)
		} else if d == 1 {
			moved++
		}
	}
	t.Logf("%d of %d results one ulp from math.Erf, the rest equal", moved, len(in))
}

// TestExpLanesMatchStdlib is the same property for the exp kernel against
// math.Exp, with its own edges: the overflow threshold, the argument whose
// result is the smallest normal, the one below which the result is zero.
func TestExpLanesMatchStdlib(t *testing.T) {
	exp := func(dst, x []float64) { ExpSubInto(dst, x, 0) }
	ref := func(dst, x []float64) { expSubGo(dst, x, 0) }
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(61))
		in := append(laneSpecials(), everyBinade(rng)...)
		for _, edge := range []float64{7.09782712893384e+02, -708.3964185322641, -745.1332191019411, 709, -709, 0.5 * math.Ln2, 1.5 * math.Ln2} {
			in = append(in, around(edge, 2048)...)
		}
		for i := 0; i < 1<<14; i++ { // a lane in eight at random leaves the straight-line path
			v := rng.Float64()*1400 - 700
			if rng.Intn(8) == 0 {
				v = []float64{800, -800, math.NaN(), math.Inf(1), math.Inf(-1), -720}[rng.Intn(6)]
			}
			in = append(in, v)
		}
		checkLanes(t, "exp", in, exp, ref)
		for _, d := range []struct {
			name string
			draw func() float64
		}{
			{"[-700, 700]", func() float64 { return rng.Float64()*1400 - 700 }},
			{"[-750, 720]", func() float64 { return rng.Float64()*1470 - 750 }},
			{"[-40, 0]", func() float64 { return -40 * rng.Float64() }},
			{"normal", rng.NormFloat64},
			{"normal·1e-6", func() float64 { return rng.NormFloat64() * 1e-6 }},
			{"[-1, 1]·ln2/2", func() float64 { return (2*rng.Float64() - 1) * 0.5 * math.Ln2 }},
			{"[-30, 30]", func() float64 { return rng.Float64()*60 - 30 }},
		} {
			checkLanesRandom(t, "exp "+d.name, laneRandomCount(), d.draw, exp, ref)
		}
	})
}

// TestExpSubIntoMatchesSoftmaxRow holds ExpSubInto to the softmax row loop it
// replaces on the churn head's width, with logits far enough below the
// maximum that their exponentials are denormal or zero, in place and not.
func TestExpSubIntoMatchesSoftmaxRow(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(62))
		row := axpyOperand(rng, 2932, false)
		for j := range row {
			switch rng.Intn(10) {
			case 0:
				row[j] -= 700 + 60*rng.Float64() // row[j] - max < -745 for some
			case 1:
				row[j] *= 30
			}
		}
		max := math.Inf(-1)
		for _, v := range row {
			max = math.Max(max, v)
		}
		want := make([]float64, len(row))
		zeros := 0
		for j, v := range row {
			want[j] = math.Exp(v - max)
			if want[j] == 0 {
				zeros++
			}
		}
		if zeros == 0 {
			t.Fatal("no logit underflowed; the row does not test the fix-up")
		}
		got := axpyOperand(rng, len(row), false)
		ExpSubInto(got, row, max)
		assertSameFloats(t, "ExpSubInto", want, got)
		ExpSubInto(row, row, max)
		assertSameFloats(t, "ExpSubInto in place", want, row)
	})
}

// geluInput draws GELU inputs at the given scale with the lanes the kernels
// hand back sprinkled in: zeros, tiny values, NaN, and |x| large enough that
// exp(-x²/2) ends denormal.
func geluInput(rng *rand.Rand, n int, scale float64) *Matrix {
	m, _ := offsetMatrix(1, n, 0)
	for i := range m.Data {
		switch rng.Intn(64) {
		case 0:
			m.Data[i] = []float64{0, math.Copysign(0, -1), 1e-12, -1e-300, math.NaN(), 38, -39.5, math.Inf(1), math.Inf(-1)}[rng.Intn(9)]
		default:
			m.Data[i] = rng.NormFloat64() * scale
		}
	}
	return m
}

// geluScalar is what the GELU kernels must reproduce, written out: the
// forward, the 1 + erf it keeps, and the backward.
func geluScalar(want, wantKeep, wantGrad, x, g []float64) {
	for i, v := range x {
		wantKeep[i] = 1 + erf(v*invSqrt2)
		want[i] = 0.5 * v * (1 + erf(v*invSqrt2))
		cdf := 0.5 * (1 + erf(v*invSqrt2))
		pdf := math.Exp(-0.5*v*v) / math.Sqrt(2*math.Pi)
		wantGrad[i] = g[i] * (cdf + v*pdf)
	}
}

// TestGELUKernelsMatchScalar holds the four GELU forms (two kernels, each with
// and without keep) to the scalar expressions on every tier: at the scales the backbone produces and wider, over ranges that
// start and end off a vector boundary, with dst aliasing x (forward) and keep
// or x (backward).
func TestGELUKernelsMatchScalar(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(63))
		for _, scale := range []float64{0.3, 1, 3, 12} {
			for _, n := range []int{0, 1, 7, 8, 9, 17, 1000, 4099} {
				for _, lo := range []int{0, 3} {
					if lo > n {
						continue
					}
					hi := n - n%5/4 // sometimes one short of the end
					x, g := geluInput(rng, n, scale), geluInput(rng, n, 1)
					want, wantKeep, wantGrad := dirty(1, n), dirty(1, n), dirty(1, n)
					geluScalar(want.Data[lo:hi], wantKeep.Data[lo:hi], wantGrad.Data[lo:hi], x.Data[lo:hi], g.Data[lo:hi])
					name := fmt.Sprintf("scale %g [%d,%d) of %d", scale, lo, hi, n)

					got, keep := dirty(1, n), dirty(1, n)
					geluElems(x, nil, nil, got, lo, hi)
					assertSameFloats(t, "geluElems "+name, want.Data, got.Data)
					got = dirty(1, n)
					geluElems(x, nil, keep, got, lo, hi)
					assertSameFloats(t, "geluElems keeping "+name, want.Data, got.Data)
					assertSameFloats(t, "geluElems keep "+name, wantKeep.Data, keep.Data)
					got = dirty(1, n)
					geluGradElems(x, g, nil, got, lo, hi)
					assertSameFloats(t, "geluGradElems "+name, wantGrad.Data, got.Data)
					got = dirty(1, n)
					geluGradElems(x, g, keep, got, lo, hi)
					assertSameFloats(t, "geluGradElems kept "+name, wantGrad.Data, got.Data)

					// In place: forward over x, backward over keep and over x.
					geluGradElems(x, g, keep, keep, lo, hi)
					assertSameFloats(t, "geluGradElems kept dst=keep "+name, wantGrad.Data[lo:hi], keep.Data[lo:hi])
					xc := x.Clone()
					geluGradElems(xc, g, nil, xc, lo, hi)
					assertSameFloats(t, "geluGradElems dst=x "+name, wantGrad.Data[lo:hi], xc.Data[lo:hi])
					geluElems(x, nil, nil, x, lo, hi)
					assertSameFloats(t, "geluElems dst=x "+name, want.Data[lo:hi], x.Data[lo:hi])
				}
			}
		}
	})
}

// TestAdamUpdateMatchesGo holds the Adam sweep to its Go loop on every tier
// over several steps, every length around a vector, unaligned operands, and
// gradients holding zeros, subnormals, infinities and NaN.
func TestAdamUpdateMatchesGo(t *testing.T) {
	eachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(64))
		for _, n := range axpyLens {
			w, m, v := axpyOperand(rng, n, false), make([]float64, n+1)[1:], make([]float64, n+1)[1:]
			wantW, wantM, wantV := append([]float64{}, w...), make([]float64, n), make([]float64, n)
			for step := 1; step <= 4; step++ {
				g := axpyOperand(rng, n, step%2 == 0)
				wantG := append([]float64{}, g...)
				c := &AdamCoef{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
					BC1: 1 - math.Pow(0.9, float64(step)), BC2: 1 - math.Pow(0.999, float64(step))}
				AdamUpdate(w, g, m, v, c)
				adamGo(wantW, wantG, wantM, wantV, c)
				name := fmt.Sprintf("n=%d step %d", n, step)
				assertSameFloats(t, name+" w", wantW, w)
				assertSameFloats(t, name+" m", wantM, m)
				assertSameFloats(t, name+" v", wantV, v)
				for j, gj := range g {
					if math.Float64bits(gj) != 0 {
						t.Fatalf("%s: gradient %d left at %v", name, j, gj)
					}
				}
			}
		}
	})
}

// TestLaneKernelAllocs pins the new kernels' steady state: fix-up vectors
// included, none of them allocates.
func TestLaneKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	x, dst := geluInput(rng, 4096, 1), New(1, 4096)
	w, g, m, v := make([]float64, 4096), make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)
	c := &AdamCoef{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, BC1: 0.1, BC2: 0.001}
	for name, fn := range map[string]func(){
		"ExpSubInto": func() { ExpSubInto(dst.Data, x.Data, 0.5) },
		"AdamUpdate": func() { AdamUpdate(w, g, m, v, c) },
		"erfLanes":   func() { erfLanes(dst.Data, x.Data) },
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}

// synthBulkBatch draws GELU inputs with the branch mix counted on synth_bulk's
// 202.8 M inputs: 89.4 % of lanes with |x/√2| < 0.84375, 8.0 % in
// [0.84375, 1.25), 2.6 % in [1.25, 6), and — because large pre-activations
// cluster by hidden unit and row — 83.6 % of eight-lane vectors wholly in the
// first range. A kernel that pays per vector for the branches its lanes need
// is only measured fairly on inputs that cluster as the real ones do.
func synthBulkBatch(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	in := func(lo, hi float64) float64 {
		return math.Copysign((lo+rng.Float64()*(hi-lo))/invSqrt2, rng.NormFloat64())
	}
	for i := 0; i < len(m.Data); i += 8 {
		central := rng.Float64() < 0.836
		for j := i; j < min(i+8, len(m.Data)); j++ {
			switch p := rng.Float64(); {
			case central || p < 0.354:
				m.Data[j] = in(0x1p-20, 0.84375)
			case p < 0.354+0.488:
				m.Data[j] = in(0.84375, 1.25)
			default:
				m.Data[j] = in(1.25, 4)
			}
		}
	}
	return m
}

// erfBranchMix reports the share of x's lanes in each of erf's ranges of
// |x/√2|: below 0.84375, up to 1.25, up to 6, and the rest (|y| >= 6, tiny,
// NaN), and the share of eight-lane vectors wholly in the first.
func erfBranchMix(x []float64) (central, middle, tail, other, wholeVectors float64) {
	var n [4]int
	whole := 0
	for i := 0; i < len(x); i += 8 {
		c := 0
		for _, v := range x[i:min(i+8, len(x))] {
			switch y := math.Abs(v * invSqrt2); {
			case y >= 0x1p-28 && y < 0.84375:
				n[0]++
				c++
			case y >= 0.84375 && y < 1.25:
				n[1]++
			case y >= 1.25 && y < 6:
				n[2]++
			default:
				n[3]++
			}
		}
		if c == 8 {
			whole++
		}
	}
	f := 1 / float64(len(x))
	return float64(n[0]) * f, float64(n[1]) * f, float64(n[2]) * f, float64(n[3]) * f, float64(whole) / float64((len(x)+7)/8)
}

// adamRange is AdamUpdate as the pool runs it under nn.Adam.
type adamRange struct {
	w, g, m, v []float64
	c          AdamCoef
}

func (a *adamRange) RunRange(lo, hi int) {
	AdamUpdate(a.w[lo:hi], a.g[lo:hi], a.m[lo:hi], a.v[lo:hi], &a.c)
}

// BenchmarkElementwiseShapes reports ns per element for the lane kernels at
// the shapes the sampler and the fits run them — GELU forward (evaluation and
// the keeping form) and backward on a 500 x 256 sampling batch and a 256 x 256
// training batch with synth_bulk's branch mix, the 256 rows of a 2932-way
// softmax's exponentials, the Adam sweep over a 256 x 256 block and over the
// churn head's 1.5 M weights — on every tier this process has. Run with -v to
// see the share of lanes each erf branch took.
func BenchmarkElementwiseShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	type op struct {
		name  string
		elems int
		run   func()
	}
	var ops []op
	for _, rows := range []int{500, 256} {
		x, g := synthBulkBatch(rng, rows, 256), randMat(rng, rows, 256)
		dst, keep := New(rows, 256), New(rows, 256)
		c, m, tl, o, w := erfBranchMix(x.Data)
		b.Logf("%dx256 batch: erf lanes %.1f%% central, %.1f%% middle, %.1f%% tail, %.1f%% other; %.1f%% of vectors wholly central", rows, 100*c, 100*m, 100*tl, 100*o, 100*w)
		shape := fmt.Sprintf("%dx256", rows)
		ops = append(ops,
			op{"gelu-eval-" + shape, len(x.Data), func() { GELUInto(dst, x) }},
			op{"gelu-keep-" + shape, len(x.Data), func() { GELUKeepInto(dst, keep, x) }},
			op{"gelu-grad-" + shape, len(x.Data), func() { GELUGradKeptInto(dst, x, keep, g) }})
	}
	logits, exps := randMat(rng, 256, 2932), New(256, 2932)
	ops = append(ops, op{"exp-256x2932", len(logits.Data), func() {
		for i := 0; i < logits.Rows; i++ {
			ExpSubInto(exps.Row(i), logits.Row(i), 4)
		}
	}})
	for _, n := range []int{1 << 16, 2*256*2932 + 2932} {
		grad := randMat(rng, 1, n).Data
		sweep := &adamRange{w: make([]float64, n), g: make([]float64, n), m: make([]float64, n), v: make([]float64, n),
			c: AdamCoef{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, BC1: 0.1, BC2: 0.001}}
		ops = append(ops, op{fmt.Sprintf("adam-%d", n), n, func() {
			copy(sweep.g, grad) // the sweep clears it; ~0.2 ns/weight of the figure
			ParallelRange(sweep, n, n)
		}})
	}
	for _, o := range ops {
		for _, tr := range allTiers {
			b.Run(fmt.Sprintf("%s/%v", o.name, tr), func(b *testing.B) {
				forceTier(b, tr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(o.elems), "ns/elem")
			})
		}
	}
}
