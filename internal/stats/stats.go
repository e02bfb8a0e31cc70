// Package stats provides the statistical primitives used by the benchmark
// framework: correlation and association measures, distribution distances,
// histogram utilities and classification/regression scores.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return 0.5 * (s[n/2-1] + s[n/2])
}

// Quantile returns the q-th quantile of xs (linear interpolation), q in [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

// sortedQuantile is Quantile of an already sorted, non-empty sample.
func sortedQuantile(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It returns 0 when either side has zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 { //silofuse:bitwise-ok zero-variance guard before division
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// entropy returns the Shannon entropy (nats) of a count vector.
func entropy(counts []float64, total float64) float64 {
	if total == 0 { //silofuse:bitwise-ok zero-total guard
		return 0
	}
	h := 0.0
	for _, c := range counts {
		if c > 0 {
			p := c / total
			h -= p * math.Log(p)
		}
	}
	return h
}

// TheilsU returns the uncertainty coefficient U(x|y): the fraction of the
// entropy of x explained by knowing y. Asymmetric, in [0, 1].
func TheilsU(x, y []int, kx, ky int) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	joint := make([]float64, kx*ky)
	margX := make([]float64, kx)
	margY := make([]float64, ky)
	for i := range x {
		joint[x[i]*ky+y[i]]++
		margX[x[i]]++
		margY[y[i]]++
	}
	n := float64(len(x))
	hx := entropy(margX, n)
	if hx == 0 { //silofuse:bitwise-ok zero-entropy guard
		return 1 // x is constant: fully "explained"
	}
	// H(X|Y) = Σ_y p(y) H(X | Y=y)
	hxy := 0.0
	for j := 0; j < ky; j++ {
		if margY[j] == 0 { //silofuse:bitwise-ok skip empty marginal cell
			continue
		}
		col := make([]float64, kx)
		for i := 0; i < kx; i++ {
			col[i] = joint[i*ky+j]
		}
		hxy += margY[j] / n * entropy(col, margY[j])
	}
	return (hx - hxy) / hx
}

// CorrelationRatio returns η (eta): the square root of the between-group
// variance fraction of values grouped by cats. In [0, 1].
func CorrelationRatio(cats []int, values []float64, k int) float64 {
	if len(cats) != len(values) || len(values) == 0 {
		return 0
	}
	sums := make([]float64, k)
	counts := make([]float64, k)
	for i, c := range cats {
		sums[c] += values[i]
		counts[c]++
	}
	grand := Mean(values)
	var between, total float64
	for j := 0; j < k; j++ {
		if counts[j] > 0 {
			d := sums[j]/counts[j] - grand
			between += counts[j] * d * d
		}
	}
	for _, v := range values {
		d := v - grand
		total += d * d
	}
	if total == 0 { //silofuse:bitwise-ok zero-variance guard before division
		return 0
	}
	return math.Sqrt(between / total)
}

// TVD returns the total variation distance between two probability vectors.
func TVD(p, q []float64) float64 {
	s := 0.0
	for i := range p {
		s += math.Abs(p[i] - q[i])
	}
	return s / 2
}

// JSDivergence returns the Jensen–Shannon divergence (base-2 logs, so the
// result is in [0, 1]) between probability vectors p and q.
func JSDivergence(p, q []float64) float64 {
	kl := func(a, b []float64) float64 {
		s := 0.0
		for i := range a {
			if a[i] > 0 && b[i] > 0 {
				s += a[i] * math.Log2(a[i]/b[i])
			}
		}
		return s
	}
	m := make([]float64, len(p))
	for i := range p {
		m[i] = 0.5 * (p[i] + q[i])
	}
	return 0.5*kl(p, m) + 0.5*kl(q, m)
}

// JSDistance returns the Jensen–Shannon distance, the square root of the
// divergence; it is a metric in [0, 1].
func JSDistance(p, q []float64) float64 {
	d := JSDivergence(p, q)
	if d < 0 {
		d = 0
	}
	return math.Sqrt(d)
}

// KSStatistic returns the two-sample Kolmogorov–Smirnov statistic: the
// maximum absolute difference between empirical CDFs.
func KSStatistic(x, y []float64) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 1
	}
	xs := append([]float64(nil), x...)
	ys := append([]float64(nil), y...)
	sort.Float64s(xs)
	sort.Float64s(ys)
	var i, j int
	var d float64
	for i < len(xs) && j < len(ys) {
		switch {
		case xs[i] < ys[j]:
			i++
		case xs[i] > ys[j]:
			j++
		default:
			// Advance past the tied value in both samples.
			v := xs[i]
			for i < len(xs) && xs[i] == v { //silofuse:bitwise-ok tie detection on sorted samples
				i++
			}
			for j < len(ys) && ys[j] == v { //silofuse:bitwise-ok tie detection on sorted samples
				j++
			}
		}
		diff := math.Abs(float64(i)/float64(len(xs)) - float64(j)/float64(len(ys)))
		if diff > d {
			d = diff
		}
	}
	return d
}

// Histogram bins values into bins equal-width buckets over [lo, hi] and
// returns the normalised frequency vector. Values outside the range clamp to
// the boundary bins.
func Histogram(values []float64, lo, hi float64, bins int) []float64 {
	out := make([]float64, bins)
	if len(values) == 0 || bins == 0 {
		return out
	}
	width := (hi - lo) / float64(bins)
	for _, v := range values {
		var b int
		if width <= 0 {
			b = 0
		} else {
			b = int((v - lo) / width)
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
		}
		out[b]++
	}
	n := float64(len(values))
	for i := range out {
		out[i] /= n
	}
	return out
}

// Frequencies returns the normalised frequency vector of integer categories.
func Frequencies(cats []int, k int) []float64 {
	out := make([]float64, k)
	if len(cats) == 0 {
		return out
	}
	for _, c := range cats {
		if c >= 0 && c < k {
			out[c]++
		}
	}
	n := float64(len(cats))
	for i := range out {
		out[i] /= n
	}
	return out
}

// QuantileCorrelation resamples both sorted samples onto a common grid and
// returns their Pearson correlation — a Q–Q plot linearity score used as the
// numeric column-similarity metric. Each side is copied and sorted once, not
// once per grid point.
func QuantileCorrelation(x, y []float64, points int) float64 {
	if len(x) == 0 || len(y) == 0 {
		return 0
	}
	sx := append([]float64(nil), x...)
	sy := append([]float64(nil), y...)
	sort.Float64s(sx)
	sort.Float64s(sy)
	qx := make([]float64, points)
	qy := make([]float64, points)
	for i := 0; i < points; i++ {
		q := float64(i) / float64(points-1)
		qx[i] = sortedQuantile(sx, q)
		qy[i] = sortedQuantile(sy, q)
	}
	return Pearson(qx, qy)
}

// MacroF1 returns the macro-averaged F1 score of predictions over k classes.
// Classes absent from both truth and prediction are skipped.
func MacroF1(yTrue, yPred []int, k int) float64 {
	tp := make([]float64, k)
	fp := make([]float64, k)
	fn := make([]float64, k)
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			tp[yTrue[i]]++
		} else {
			fp[yPred[i]]++
			fn[yTrue[i]]++
		}
	}
	var sum float64
	var classes int
	for c := 0; c < k; c++ {
		if tp[c]+fp[c]+fn[c] == 0 { //silofuse:bitwise-ok skip class with no observations
			continue
		}
		classes++
		denom := 2*tp[c] + fp[c] + fn[c]
		if denom > 0 {
			sum += 2 * tp[c] / denom
		}
	}
	if classes == 0 {
		return 0
	}
	return sum / float64(classes)
}

// D2AbsoluteError returns the D² score based on absolute error:
// 1 − MAE(pred)/MAE(median baseline). 1 is perfect; ≤ 0 means no better
// than predicting the median.
func D2AbsoluteError(yTrue, yPred []float64) float64 {
	if len(yTrue) == 0 {
		return 0
	}
	med := Median(yTrue)
	var mae, maeBase float64
	for i := range yTrue {
		mae += math.Abs(yTrue[i] - yPred[i])
		maeBase += math.Abs(yTrue[i] - med)
	}
	if maeBase == 0 { //silofuse:bitwise-ok zero-baseline guard
		if mae == 0 { //silofuse:bitwise-ok zero-baseline guard
			return 1
		}
		return 0
	}
	return 1 - mae/maeBase
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
