//go:build !amd64 || purego

package tensor

// kernelTier is tierGo on every build without the assembly: other
// architectures, and amd64 built with -tags purego. (A variable only so the
// tests that walk the tiers compile everywhere.)
var kernelTier = tierGo

// lanesMatch is false where there are no lane kernels to match math.Exp.
const lanesMatch = false

func tile8x16(dst *float64, ldd uintptr, a *float64, aRow, aStep uintptr, panel *float64, kc int, mask uint32, accumulate bool, bias *float64) {
	panic("tensor: tile kernel called on a build without it")
}

func packPanel16(dst, src *float64, stride uintptr, kc int, mask uint32) {
	panic("tensor: tile kernel called on a build without it")
}

func axpy4(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy1(dst, b []float64, a float64) { axpy1Go(dst, b, a) }

func erfAVX512(dst, x []float64) int { panic("tensor: lane kernel called on a build without it") }

func expSubAVX512(dst, x []float64, sub float64) int {
	panic("tensor: lane kernel called on a build without it")
}

func geluAVX512(dst, keep, x []float64) int {
	panic("tensor: lane kernel called on a build without it")
}

func geluGradAVX512(dst, x, keep, g []float64) int {
	panic("tensor: lane kernel called on a build without it")
}

func adamAVX512(w, g, m, v []float64, c *AdamCoef) {
	panic("tensor: lane kernel called on a build without it")
}
