package tensor

import "math"

// Exact lane-wise elementwise kernels: exp, erf, the GELU forms built on them
// (elementwise.go) and the Adam sweep. On a CPU with AVX-512 they run eight
// elements at a time in vmath_amd64.s; everywhere else — other CPUs and
// architectures, -tags purego — they are the Go loops below, which are also
// the reference the assembly is tested against. Both produce the same bits,
// because a lane does to its element exactly what the Go loop does to it.
//
// The fix-up protocol. An assembly kernel computes only the lanes whose scalar
// code runs straight through: erf's four polynomial ranges and |y| >= 6, exp's
// normal results. It stops in front of the first vector that holds any other
// lane (NaN, |y| < 2**-28, an exp that overflows or ends denormal) and returns
// how many elements it finished. The wrapper then runs that one vector — up to
// eight elements — through the Go loop and calls the kernel again behind it.
// Nothing is buffered and nothing is computed twice, so every kernel works in
// place.

// lanes reports whether exp, erf and the GELU kernels run on the lane kernels:
// on the AVX-512 tier of a process whose math.Exp exp8 reproduces (lanesMatch,
// probed at start-up). Where it does not they are the Go loops, and the tier's
// matmuls and Adam sweep, which take no exponential, are not affected.
func lanes() bool { return kernelTier == tierAVX512 && lanesMatch }

// span is s[lo:hi], and nil for the nil slice of an operand a kernel can do
// without.
func span(s []float64, lo, hi int) []float64 {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// erfGo is the reference for erfLanes.
func erfGo(dst, x []float64) {
	for i, v := range x {
		dst[i] = math.Erf(v)
	}
}

// erfLanes stores erf(x[i]) into dst[i]. GELU is its only consumer in the
// package, through kernels that fuse it with their own arithmetic; this form
// exists so that erf can be held against math.Erf on its own.
func erfLanes(dst, x []float64) {
	x = x[:len(dst)]
	for lanes() && len(dst) > 0 {
		n := erfAVX512(dst, x)
		fix := min(n+8, len(dst))
		erfGo(dst[n:fix], x[n:fix])
		dst, x = dst[fix:], x[fix:]
	}
	erfGo(dst, x)
}

// expSubGo is the reference for ExpSubInto.
func expSubGo(dst, row []float64, max float64) {
	for j, v := range row {
		dst[j] = math.Exp(v - max)
	}
}

// ExpSubInto stores exp(row[j] - max) into dst[j] for every j of dst (which
// may be row itself): the exponentials of a softmax row, whose sum the caller
// then takes in column order. Each is math.Exp's result to the bit.
func ExpSubInto(dst, row []float64, max float64) {
	row = row[:len(dst)]
	for lanes() && len(dst) > 0 {
		n := expSubAVX512(dst, row, max)
		fix := min(n+8, len(dst))
		expSubGo(dst[n:fix], row[n:fix], max)
		dst, row = dst[fix:], row[fix:]
	}
	expSubGo(dst, row, max)
}

// AdamCoef holds the scalars of one Adam step: the learning rate, the two
// decay rates, epsilon, and the bias corrections 1 - beta1^t and 1 - beta2^t.
type AdamCoef struct {
	LR, Beta1, Beta2, Eps, BC1, BC2 float64
}

// adamGo is the reference for AdamUpdate.
func adamGo(w, g, m, v []float64, c *AdamCoef) {
	for j, gj := range g {
		m[j] = c.Beta1*m[j] + (1-c.Beta1)*gj
		v[j] = c.Beta2*v[j] + (1-c.Beta2)*gj*gj
		mHat := m[j] / c.BC1
		vHat := v[j] / c.BC2
		w[j] -= c.LR * mHat / (math.Sqrt(vHat) + c.Eps)
		g[j] = 0
	}
}

// AdamUpdate applies one Adam step to the weights w from their gradients g
// and moments m and v (all of w's length), and clears g. Every operation is a
// multiply, add, divide or square root, which IEEE 754 rounds correctly, so
// the eight-lane sweep and the Go loop agree to the bit by construction.
func AdamUpdate(w, g, m, v []float64, c *AdamCoef) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	if kernelTier != tierAVX512 {
		adamGo(w, g, m, v, c)
		return
	}
	adamAVX512(w, g, m, v, c)
}
