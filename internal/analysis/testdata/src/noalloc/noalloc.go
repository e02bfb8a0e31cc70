// Package nn impersonates a kernel package so all three halves of the
// noalloc analyzer apply: annotated bodies may not contain allocating
// constructs or profile-capture calls, and exported *Into kernels must
// carry the annotation.
package nn

import "runtime/pprof"

type pair struct{ x, y float64 }

// ScaleInto lacks the annotation the kernel coverage rule demands.
func ScaleInto(dst, src []float64, s float64) { // want "exported kernel ScaleInto is missing the //silofuse:noalloc annotation"
	for i := range src {
		dst[i] = src[i] * s
	}
}

// AxpyInto is a well-formed kernel: annotated, and its body only writes
// through preallocated slices.
//
//silofuse:noalloc
func AxpyInto(dst, x []float64, a float64) {
	for i := range x {
		dst[i] += a * x[i]
	}
}

// leaky claims the contract but violates it in every recognised way.
//
//silofuse:noalloc
func leaky(dst []float64, s string) []float64 {
	tmp := make([]float64, 4)          // want "make allocates in noalloc function leaky"
	dst = append(dst, tmp...)          // want "append allocates in noalloc function leaky"
	p := pair{x: 1, y: 2}              // want "composite literal allocates in noalloc function leaky"
	f := func() float64 { return p.x } // want "closure allocates in noalloc function leaky"
	s += "!"                           // want "string concatenation allocates in noalloc function leaky"
	_ = s
	dst[0] = f()
	return dst
}

// grow is un-annotated cold-path growth: allocation here is fine.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		buf = make([]float64, n)
	}
	return buf[:n]
}

// profiled claims the contract but snapshots profiles mid-kernel: capture
// brackets the whole run from the binary, never the hot loop it measures.
//
//silofuse:noalloc
func profiled(dst []float64) {
	_ = pprof.StartCPUProfile(nil) // want "profile capture StartCPUProfile in noalloc function profiled"
	for i := range dst {
		dst[i] = 0
	}
	pprof.StopCPUProfile() // want "profile capture StopCPUProfile in noalloc function profiled"
}

// hot is annotated and calls only plain helpers: no report.
//
//silofuse:noalloc
func hot(dst []float64) {
	for i := range dst {
		dst[i] *= 2
	}
}
