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
		dst[i] = erf(v)
	}
}

// erf is the error function as math/erf.go computes it (FreeBSD's s_erf.c,
// by way of the Go standard library, whose coefficients these are), except
// that each Horner step of its polynomials is one fused multiply-add,
// acc = fl(acc·t + c), where math.Erf rounds the product and then the sum.
// Everything else is math/erf.go's own expression: x + x·y, the tail's two
// exponentials and its divisions. It is within an ulp of math.Erf
// (TestErfWithinAnUlpOfStdlib), and erf8 reproduces it bit for bit.
func erf(x float64) float64 {
	const (
		veryTiny = 2.848094538889218e-306 // 0x0080000000000000
		small    = 1.0 / (1 << 28)        // 2**-28

		erx  = 8.45062911510467529297e-01 // 0x3FEB0AC160000000
		efx  = 1.28379167095512586316e-01 // 0x3FC06EBA8214DB69
		efx8 = 1.02703333676410069053e+00 // 0x3FF06EBA8214DB69
		// erf in [0, 0.84375]
		pp0 = 1.28379167095512558561e-01  // 0x3FC06EBA8214DB68
		pp1 = -3.25042107247001499370e-01 // 0xBFD4CD7D691CB913
		pp2 = -2.84817495755985104766e-02 // 0xBF9D2A51DBD7194F
		pp3 = -5.77027029648944159157e-03 // 0xBF77A291236668E4
		pp4 = -2.37630166566501626084e-05 // 0xBEF8EAD6120016AC
		qq1 = 3.97917223959155352819e-01  // 0x3FD97779CDDADC09
		qq2 = 6.50222499887672944485e-02  // 0x3FB0A54C5536CEBA
		qq3 = 5.08130628187576562776e-03  // 0x3F74D022C4D36B0F
		qq4 = 1.32494738004321644526e-04  // 0x3F215DC9221C1A10
		qq5 = -3.96022827877536812320e-06 // 0xBED09C4342A26120
		// erf in [0.84375, 1.25]
		pa0 = -2.36211856075265944077e-03 // 0xBF6359B8BEF77538
		pa1 = 4.14856118683748331666e-01  // 0x3FDA8D00AD92B34D
		pa2 = -3.72207876035701323847e-01 // 0xBFD7D240FBB8C3F1
		pa3 = 3.18346619901161753674e-01  // 0x3FD45FCA805120E4
		pa4 = -1.10894694282396677476e-01 // 0xBFBC63983D3E28EC
		pa5 = 3.54783043256182359371e-02  // 0x3FA22A36599795EB
		pa6 = -2.16637559486879084300e-03 // 0xBF61BF380A96073F
		qa1 = 1.06420880400844228286e-01  // 0x3FBB3E6618EEE323
		qa2 = 5.40397917702171048937e-01  // 0x3FE14AF092EB6F33
		qa3 = 7.18286544141962662868e-02  // 0x3FB2635CD99FE9A7
		qa4 = 1.26171219808761642112e-01  // 0x3FC02660E763351F
		qa5 = 1.36370839120290507362e-02  // 0x3F8BEDC26B51DD1C
		qa6 = 1.19844998467991074170e-02  // 0x3F888B545735151D
		// erfc in [1.25, 1/0.35]
		ra0 = -9.86494403484714822705e-03 // 0xBF843412600D6435
		ra1 = -6.93858572707181764372e-01 // 0xBFE63416E4BA7360
		ra2 = -1.05586262253232909814e+01 // 0xC0251E0441B0E726
		ra3 = -6.23753324503260060396e+01 // 0xC04F300AE4CBA38D
		ra4 = -1.62396669462573470355e+02 // 0xC0644CB184282266
		ra5 = -1.84605092906711035994e+02 // 0xC067135CEBCCABB2
		ra6 = -8.12874355063065934246e+01 // 0xC054526557E4D2F2
		ra7 = -9.81432934416914548592e+00 // 0xC023A0EFC69AC25C
		sa1 = 1.96512716674392571292e+01  // 0x4033A6B9BD707687
		sa2 = 1.37657754143519042600e+02  // 0x4061350C526AE721
		sa3 = 4.34565877475229228821e+02  // 0x407B290DD58A1A71
		sa4 = 6.45387271733267880336e+02  // 0x40842B1921EC2868
		sa5 = 4.29008140027567833386e+02  // 0x407AD02157700314
		sa6 = 1.08635005541779435134e+02  // 0x405B28A3EE48AE2C
		sa7 = 6.57024977031928170135e+00  // 0x401A47EF8E484A93
		sa8 = -6.04244152148580987438e-02 // 0xBFAEEFF2EE749A62
		// erfc in [1/0.35, 28]
		rb0 = -9.86494292470009928597e-03 // 0xBF84341239E86F4A
		rb1 = -7.99283237680523006574e-01 // 0xBFE993BA70C285DE
		rb2 = -1.77579549177547519889e+01 // 0xC031C209555F995A
		rb3 = -1.60636384855821916062e+02 // 0xC064145D43C5ED98
		rb4 = -6.37566443368389627722e+02 // 0xC083EC881375F228
		rb5 = -1.02509513161107724954e+03 // 0xC09004616A2E5992
		rb6 = -4.83519191608651397019e+02 // 0xC07E384E9BDC383F
		sb1 = 3.03380607434824582924e+01  // 0x403E568B261D5190
		sb2 = 3.25792512996573918826e+02  // 0x40745CAE221B9F0A
		sb3 = 1.53672958608443695994e+03  // 0x409802EB189D5118
		sb4 = 3.19985821950859553908e+03  // 0x40A8FFB7688C246A
		sb5 = 2.55305040643316442583e+03  // 0x40A3F219CEDF3BE6
		sb6 = 4.74528541206955367215e+02  // 0x407DA874E79FE763
		sb7 = -2.24409524465858183362e+01 // 0xC03670E242712D62
	)
	switch {
	case math.IsNaN(x):
		return math.NaN()
	case math.IsInf(x, 1):
		return 1
	case math.IsInf(x, -1):
		return -1
	}
	sign := false
	if x < 0 {
		x = -x
		sign = true
	}
	if x < 0.84375 {
		var temp float64
		if x < small {
			if x < veryTiny {
				temp = 0.125 * (8.0*x + efx8*x) // avoid underflow
			} else {
				temp = x + efx*x
			}
		} else {
			z := x * x
			r := math.FMA(math.FMA(math.FMA(math.FMA(pp4, z, pp3), z, pp2), z, pp1), z, pp0)
			s := math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(qq5, z, qq4), z, qq3), z, qq2), z, qq1), z, 1)
			y := r / s
			temp = x + x*y
		}
		if sign {
			return -temp
		}
		return temp
	}
	if x < 1.25 {
		s := x - 1
		P := math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(pa6, s, pa5), s, pa4), s, pa3), s, pa2), s, pa1), s, pa0)
		Q := math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(qa6, s, qa5), s, qa4), s, qa3), s, qa2), s, qa1), s, 1)
		if sign {
			return -erx - P/Q
		}
		return erx + P/Q
	}
	if x >= 6 {
		if sign {
			return -1
		}
		return 1
	}
	s := 1 / (x * x)
	var R, S float64
	if x < 1/0.35 {
		R = math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(ra7, s, ra6), s, ra5), s, ra4), s, ra3), s, ra2), s, ra1), s, ra0)
		S = math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(sa8, s, sa7), s, sa6), s, sa5), s, sa4), s, sa3), s, sa2), s, sa1), s, 1)
	} else {
		R = math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(rb6, s, rb5), s, rb4), s, rb3), s, rb2), s, rb1), s, rb0)
		S = math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(math.FMA(sb7, s, sb6), s, sb5), s, sb4), s, sb3), s, sb2), s, sb1), s, 1)
	}
	z := math.Float64frombits(math.Float64bits(x) & 0xffffffff00000000) // pseudo-single (20-bit) precision x
	r := math.Exp(-z*z-0.5625) * math.Exp((z-x)*(z+x)+R/S)
	if sign {
		return r/x - 1
	}
	return 1 - r/x
}

// erfLanes stores erf(x[i]) into dst[i]. GELU is its only consumer in the
// package, through kernels that fuse it with their own arithmetic; this form
// exists so that erf can be held against the Go erf on its own.
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
