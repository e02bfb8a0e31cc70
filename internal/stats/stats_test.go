//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if Std(xs) != 2 {
		t.Fatalf("Std = %v", Std(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Fatal("empty input should yield 0")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if Median([]float64{3, 1, 2}) != 2 {
		t.Fatal("odd median")
	}
	if Median([]float64{4, 1, 2, 3}) != 2.5 {
		t.Fatal("even median")
	}
	xs := []float64{0, 1, 2, 3, 4}
	if Quantile(xs, 0) != 0 || Quantile(xs, 1) != 4 {
		t.Fatal("quantile extremes")
	}
	if Quantile(xs, 0.5) != 2 {
		t.Fatal("quantile mid")
	}
	if !approx(Quantile(xs, 0.25), 1, 1e-12) {
		t.Fatalf("q25 = %v", Quantile(xs, 0.25))
	}
}

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if !approx(Pearson(x, y), 1, 1e-12) {
		t.Fatalf("perfect positive: %v", Pearson(x, y))
	}
	neg := []float64{10, 8, 6, 4, 2}
	if !approx(Pearson(x, neg), -1, 1e-12) {
		t.Fatalf("perfect negative: %v", Pearson(x, neg))
	}
	if Pearson(x, []float64{3, 3, 3, 3, 3}) != 0 {
		t.Fatal("constant should give 0")
	}
}

func TestTheilsU(t *testing.T) {
	// y determines x exactly: U(x|y) = 1.
	x := []int{0, 0, 1, 1, 0, 0, 1, 1}
	y := []int{0, 0, 1, 1, 0, 0, 1, 1}
	if !approx(TheilsU(x, y, 2, 2), 1, 1e-12) {
		t.Fatalf("deterministic: %v", TheilsU(x, y, 2, 2))
	}
	// Independent: U ≈ 0.
	x2 := []int{0, 1, 0, 1, 0, 1, 0, 1}
	y2 := []int{0, 0, 1, 1, 0, 0, 1, 1}
	if !approx(TheilsU(x2, y2, 2, 2), 0, 1e-12) {
		t.Fatalf("independent: %v", TheilsU(x2, y2, 2, 2))
	}
	// Constant x: defined as 1.
	if TheilsU([]int{0, 0, 0}, []int{0, 1, 2}, 1, 3) != 1 {
		t.Fatal("constant x")
	}
}

func TestTheilsURange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(50)
		kx, ky := 2+rng.Intn(4), 2+rng.Intn(4)
		x := make([]int, n)
		y := make([]int, n)
		for i := range x {
			x[i] = rng.Intn(kx)
			y[i] = rng.Intn(ky)
		}
		u := TheilsU(x, y, kx, ky)
		return u >= -1e-12 && u <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationRatio(t *testing.T) {
	// Category fully determines the value: η = 1.
	cats := []int{0, 0, 1, 1}
	vals := []float64{1, 1, 5, 5}
	if !approx(CorrelationRatio(cats, vals, 2), 1, 1e-12) {
		t.Fatalf("η = %v", CorrelationRatio(cats, vals, 2))
	}
	// Same distribution in both groups: η = 0.
	cats2 := []int{0, 0, 1, 1}
	vals2 := []float64{1, 5, 1, 5}
	if !approx(CorrelationRatio(cats2, vals2, 2), 0, 1e-12) {
		t.Fatalf("η = %v", CorrelationRatio(cats2, vals2, 2))
	}
}

func TestTVD(t *testing.T) {
	if TVD([]float64{1, 0}, []float64{0, 1}) != 1 {
		t.Fatal("disjoint TVD should be 1")
	}
	if TVD([]float64{0.5, 0.5}, []float64{0.5, 0.5}) != 0 {
		t.Fatal("identical TVD should be 0")
	}
}

func TestJSDivergence(t *testing.T) {
	p := []float64{0.5, 0.5}
	if JSDivergence(p, p) != 0 {
		t.Fatal("JSD(p,p) must be 0")
	}
	d := JSDivergence([]float64{1, 0}, []float64{0, 1})
	if !approx(d, 1, 1e-12) {
		t.Fatalf("disjoint base-2 JSD = %v, want 1", d)
	}
	if JSDistance([]float64{1, 0}, []float64{0, 1}) != 1 {
		t.Fatal("JS distance of disjoint must be 1")
	}
}

func TestJSDivergenceSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		p := make([]float64, k)
		q := make([]float64, k)
		var sp, sq float64
		for i := range p {
			p[i] = rng.Float64()
			q[i] = rng.Float64()
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		d1, d2 := JSDivergence(p, q), JSDivergence(q, p)
		return approx(d1, d2, 1e-12) && d1 >= 0 && d1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKSStatistic(t *testing.T) {
	same := []float64{1, 2, 3, 4, 5}
	if KSStatistic(same, same) != 0 {
		t.Fatal("identical samples must have KS 0")
	}
	d := KSStatistic([]float64{1, 2, 3}, []float64{10, 11, 12})
	if d != 1 {
		t.Fatalf("disjoint supports: KS = %v, want 1", d)
	}
	if KSStatistic(nil, same) != 1 {
		t.Fatal("empty sample treated as maximal distance")
	}
}

func TestHistogram(t *testing.T) {
	h := Histogram([]float64{0, 0.5, 1, 1.5, 2}, 0, 2, 2)
	if !approx(h[0]+h[1], 1, 1e-12) {
		t.Fatal("histogram must normalise")
	}
	if !approx(h[0], 0.4, 1e-12) {
		t.Fatalf("bin 0 = %v", h[0])
	}
	// Out-of-range values clamp.
	h2 := Histogram([]float64{-5, 10}, 0, 1, 4)
	if h2[0] != 0.5 || h2[3] != 0.5 {
		t.Fatalf("clamping failed: %v", h2)
	}
}

func TestFrequencies(t *testing.T) {
	f := Frequencies([]int{0, 1, 1, 2}, 3)
	if !approx(f[1], 0.5, 1e-12) {
		t.Fatalf("freq = %v", f)
	}
	// Out-of-range categories ignored.
	f2 := Frequencies([]int{0, 7}, 2)
	if f2[0] != 0.5 {
		t.Fatalf("out-of-range not ignored: %v", f2)
	}
}

func TestQuantileCorrelation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 500)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	// Same distribution → Q-Q correlation near 1.
	if qc := QuantileCorrelation(x, y, 50); qc < 0.98 {
		t.Fatalf("same-dist Q-Q corr = %v", qc)
	}
}

func TestMacroF1(t *testing.T) {
	yt := []int{0, 0, 1, 1}
	if MacroF1(yt, yt, 2) != 1 {
		t.Fatal("perfect prediction must be 1")
	}
	yp := []int{1, 1, 0, 0}
	if MacroF1(yt, yp, 2) != 0 {
		t.Fatal("fully wrong must be 0")
	}
	// Skips classes absent from truth and prediction.
	if MacroF1([]int{0, 0}, []int{0, 0}, 5) != 1 {
		t.Fatal("absent classes must be skipped")
	}
}

func TestD2AbsoluteError(t *testing.T) {
	yt := []float64{1, 2, 3, 4}
	if D2AbsoluteError(yt, yt) != 1 {
		t.Fatal("perfect prediction must be 1")
	}
	med := Median(yt)
	pred := []float64{med, med, med, med}
	if D2AbsoluteError(yt, pred) != 0 {
		t.Fatal("median baseline must be 0")
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Fatal("clamp wrong")
	}
}
