package main

import (
	"math"
	"sort"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between the two closest ranks; 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the exclusive method the driver
// uses for its spread). With fewer than two values all three are the value.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median: the run-to-run noise a bound has to sit above.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 { //silofuse:bitwise-ok an exact zero median is the one case the division cannot take
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func medianDuration(ds []time.Duration) time.Duration {
	return time.Duration(median(msOf(ds)) * float64(time.Millisecond))
}

// timeIt calls fn once to warm workspaces, then repeatedly until budget is
// spent (at least three times), and returns the median call time.
func timeIt(budget time.Duration, fn func()) time.Duration {
	return timeItAfter(budget, func() {}, fn)
}

// timeItAfter is timeIt with an untimed prepare call before each timed one.
func timeItAfter(budget time.Duration, prepare, fn func()) time.Duration {
	prepare()
	fn()
	var ds []time.Duration
	start := time.Now()
	for len(ds) < 3 || time.Since(start) < budget {
		prepare()
		t0 := time.Now()
		fn()
		ds = append(ds, time.Since(t0))
	}
	return medianDuration(ds)
}
