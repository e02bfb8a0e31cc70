//go:build !amd64 || purego

package tensor

// kernelTier is tierGo on every build without the assembly: other
// architectures, and amd64 built with -tags purego. (A variable only so the
// tests that walk the tiers compile everywhere.)
var kernelTier = tierGo

func tile8x16(dst *float64, ldd uintptr, a *float64, aRow, aStep uintptr, panel *float64, kc int, mask uint32, accumulate bool) {
	panic("tensor: tile kernel called on a build without it")
}

func packPanel16(dst, src *float64, stride uintptr, kc int, mask uint32) {
	panic("tensor: tile kernel called on a build without it")
}

func axpy4(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy1(dst, b []float64, a float64) { axpy1Go(dst, b, a) }
