//go:build !amd64 || purego

package tensor

// haveAVX2 is false on every build without the assembly: other
// architectures, and amd64 built with -tags purego.
const haveAVX2 = false

func axpy4(dst, b0, b1, b2, b3 []float64, a0, a1, a2, a3 float64) {
	axpy4Go(dst, b0, b1, b2, b3, a0, a1, a2, a3)
}

func axpy1(dst, b []float64, a float64) { axpy1Go(dst, b, a) }
