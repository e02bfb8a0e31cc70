package tensor

import "math"

// Pool-backed elementwise helpers. Unlike the matmul kernels these
// parallelise over flat element ranges; each element of dst depends only on
// the same element of a and b, so dst may alias either operand and chunk
// boundaries cannot change the result. The work estimate is one unit per
// element, so only large matrices fan out — these ops are memory-bound and
// the pool pays off later than it does for matmul.

func addElems(a, b, _, dst *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}

func subElems(a, b, _, dst *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] - b.Data[i]
	}
}

func mulElems(a, b, _, dst *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst.Data[i] = a.Data[i] * b.Data[i]
	}
}

func elementwiseInto(kern kernelFn, dst, a, b *Matrix, op string) *Matrix {
	a.assertSameShape(b, op)
	dst.assertSameShape(a, op)
	n := len(dst.Data)
	dispatchKernel(kern, a, b, nil, dst, n, n)
	return dst
}

// AddInto stores a+b into dst (dst may alias a or b) and returns dst.
func AddInto(dst, a, b *Matrix) *Matrix { return elementwiseInto(addElems, dst, a, b, "AddInto") }

// SubInto stores a-b into dst (dst may alias a or b) and returns dst.
func SubInto(dst, a, b *Matrix) *Matrix { return elementwiseInto(subElems, dst, a, b, "SubInto") }

// MulElemInto stores the Hadamard product a*b into dst (dst may alias a or
// b) and returns dst.
func MulElemInto(dst, a, b *Matrix) *Matrix {
	return elementwiseInto(mulElems, dst, a, b, "MulElemInto")
}

// invSqrt2 is 1/sqrt(2), the erf argument scale of the exact GELU.
const invSqrt2 = 0.7071067811865476

// The GELU kernels evaluate the exact GELU and its derivative. With a keep
// they pass t = 1 + erf(x/√2) from the forward to the backward through it:
// 0.5·x·t and 0.5·t are the products the recomputing forms take of the same
// rounded t, so with and without keep they produce the same bits. erf and exp
// are all of their cost. On AVX-512 they run on the lane kernels under
// vmath.go's fix-up protocol; the Go loops are every other tier and the
// reference.

// geluGo stores gelu(x[i]) into dst[i], and t into keep[i] unless keep is nil.
func geluGo(dst, keep, x []float64) {
	for i, v := range x {
		t := 1 + erf(v*invSqrt2)
		if keep != nil {
			keep[i] = t
		}
		dst[i] = 0.5 * v * t
	}
}

// geluGradGo stores g[i]·gelu'(x[i]) into dst[i], reading t from keep[i]
// unless keep is nil.
func geluGradGo(dst, x, keep, g []float64) {
	for i, v := range x {
		var t float64
		if keep != nil {
			t = keep[i]
		} else {
			t = 1 + erf(v*invSqrt2)
		}
		pdf := math.Exp(-0.5*v*v) / math.Sqrt(2*math.Pi)
		dst[i] = g[i] * (0.5*t + v*pdf)
	}
}

// geluElems is GELUInto's kernel (keep nil) and GELUKeepInto's.
func geluElems(x, _, keep, dst *Matrix, lo, hi int) {
	d, xs := dst.Data[lo:hi], x.Data[lo:hi]
	var k []float64
	if keep != nil {
		k = keep.Data[lo:hi]
	}
	for lanes() && len(d) > 0 {
		n := geluAVX512(d, k, xs)
		fix := min(n+8, len(d))
		geluGo(d[n:fix], span(k, n, fix), xs[n:fix])
		d, k, xs = d[fix:], span(k, fix, len(k)), xs[fix:]
	}
	geluGo(d, k, xs)
}

// geluGradElems is GELUGradInto's kernel (keep nil) and GELUGradKeptInto's.
func geluGradElems(x, gradOut, keep, dst *Matrix, lo, hi int) {
	d, xs, g := dst.Data[lo:hi], x.Data[lo:hi], gradOut.Data[lo:hi]
	var k []float64
	if keep != nil {
		k = keep.Data[lo:hi]
	}
	for lanes() && len(d) > 0 {
		n := geluGradAVX512(d, xs, k, g)
		fix := min(n+8, len(d))
		geluGradGo(d[n:fix], xs[n:fix], span(k, n, fix), g[n:fix])
		d, xs, k, g = d[fix:], xs[fix:], span(k, fix, len(k)), g[fix:]
	}
	geluGradGo(d, xs, k, g)
}

// GELUInto stores gelu(x) = x·Φ(x) into dst (dst may alias x) and returns
// dst.
func GELUInto(dst, x *Matrix) *Matrix {
	dst.assertSameShape(x, "GELUInto")
	n := len(dst.Data)
	dispatchKernel(geluElems, x, nil, nil, dst, n, n)
	return dst
}

// GELUKeepInto is GELUInto that also stores 1 + erf(x/√2) into keep (which
// must not alias x or dst), for GELUGradKeptInto to read: erf is most of both
// kernels' cost, and a training step would otherwise take it twice per
// element.
func GELUKeepInto(dst, keep, x *Matrix) *Matrix {
	dst.assertSameShape(x, "GELUKeepInto")
	keep.assertSameShape(x, "GELUKeepInto")
	n := len(dst.Data)
	dispatchKernel(geluElems, x, nil, keep, dst, n, n)
	return dst
}

// GELUGradKeptInto is GELUGradInto for an x whose 1 + erf(x/√2) GELUKeepInto
// left in keep; same bits, one erf fewer per element. dst may alias keep (or
// either other operand): each element is read before it is written.
func GELUGradKeptInto(dst, x, keep, gradOut *Matrix) *Matrix {
	x.assertSameShape(gradOut, "GELUGradKeptInto")
	keep.assertSameShape(x, "GELUGradKeptInto")
	dst.assertSameShape(x, "GELUGradKeptInto")
	n := len(dst.Data)
	dispatchKernel(geluGradElems, x, gradOut, keep, dst, n, n)
	return dst
}

// GELUGradKeptRange is GELUGradKeptInto over the elements [lo, hi) alone,
// for a RangeKernel that fuses it with work of its own on the same elements.
func GELUGradKeptRange(dst, x, keep, gradOut *Matrix, lo, hi int) {
	geluGradElems(x, gradOut, keep, dst, lo, hi)
}

// GELUGradInto stores gradOut · gelu'(x), with gelu'(x) = Φ(x) + x·φ(x),
// into dst (dst may alias either operand) and returns dst.
func GELUGradInto(dst, x, gradOut *Matrix) *Matrix {
	return elementwiseInto(geluGradElems, dst, x, gradOut, "GELUGradInto")
}
