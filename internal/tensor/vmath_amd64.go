//go:build amd64 && !purego

package tensor

import "math"

// lanesMatch reports whether this process may run exp, erf and GELU on the
// lane kernels; see lanes. The matmul tier does not depend on it.
var lanesMatch = kernelTier == tierAVX512 && expLanesMatchStdlib()

// expLanesMatchStdlib reports whether exp8 reproduces this process's math.Exp.
// exp8 mirrors math.Exp's FMA path, which needs the FMA instructions the
// AVX-512 tier already requires; whether math.Exp takes that path is the
// standard library's decision — it does when the CPU has them,
// GODEBUG=cpu.fma=off reverses that, and a later release may change the
// algorithm — and the two paths differ in the last bit of four of these 64
// arguments. Call only on the AVX-512 tier.
func expLanesMatchStdlib() bool {
	var x, got [64]float64
	for i := range x {
		x[i] = float64(i-32) * 0.37
	}
	if expSubAVX512(got[:], x[:], 0) != len(x) {
		return false
	}
	for i, v := range x {
		if got[i] != math.Exp(v) { //silofuse:bitwise-ok the kernel is used only where it is math.Exp to the bit
			return false
		}
	}
	return true
}

// The lane kernels of vmath_amd64.s. Each works on len(dst) elements (adam:
// len(w)), trusts every other slice to be at least that long, and — adam
// apart, which takes every lane — returns how many elements it finished
// before a vector holding a lane left to the Go loop; see vmath.go.

//go:noescape
func erfAVX512(dst, x []float64) int

//go:noescape
func expSubAVX512(dst, x []float64, sub float64) int

// geluAVX512 does not store 1 + erf when keep is nil.
//
//go:noescape
func geluAVX512(dst, keep, x []float64) int

// geluGradAVX512 takes the erf itself when keep is nil.
//
//go:noescape
func geluGradAVX512(dst, x, keep, g []float64) int

//go:noescape
func adamAVX512(w, g, m, v []float64, c *AdamCoef)
