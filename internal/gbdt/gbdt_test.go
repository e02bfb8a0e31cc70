package gbdt

import (
	"math"
	"math/rand"
	"testing"

	"silofuse/internal/stats"
	"silofuse/internal/tensor"
)

func TestRegressorLearnsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 600
	x := tensor.New(n, 3).Randn(rng, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 2*x.At(i, 0) - x.At(i, 1) + 0.1*rng.NormFloat64()
	}
	r := NewRegressor(DefaultParams())
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := r.Predict(x)
	if d2 := stats.D2AbsoluteError(y, pred); d2 < 0.7 {
		t.Fatalf("regressor too weak: D2 = %v", d2)
	}
}

func TestRegressorLearnsNonlinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 800
	x := tensor.New(n, 2).Randn(rng, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = math.Sin(2*x.At(i, 0)) + x.At(i, 1)*x.At(i, 1)
	}
	p := DefaultParams()
	p.NumRounds = 80
	r := NewRegressor(p)
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	if d2 := stats.D2AbsoluteError(y, r.Predict(x)); d2 < 0.6 {
		t.Fatalf("nonlinear fit too weak: D2 = %v", d2)
	}
}

func TestRegressorErrors(t *testing.T) {
	r := NewRegressor(DefaultParams())
	if err := r.Fit(tensor.New(3, 2), []float64{1}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if err := r.Fit(tensor.New(0, 2), nil); err == nil {
		t.Fatal("expected empty set error")
	}
}

func TestBinaryClassifierLearnsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 600
	x := tensor.New(n, 2).Randn(rng, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		if x.At(i, 0)+0.5*x.At(i, 1) > 0 {
			labels[i] = 1
		}
	}
	c := NewClassifier(DefaultParams(), 2)
	if err := c.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	pred := c.Predict(x)
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.9 {
		t.Fatalf("binary accuracy %v", acc)
	}
}

func TestBinaryProbabilitiesCalibratedShape(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 400
	x := tensor.New(n, 1).Randn(rng, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		if x.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	c := NewClassifier(DefaultParams(), 2)
	if err := c.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	probs := c.PredictProba(x)
	for i := 0; i < n; i++ {
		p0, p1 := probs.At(i, 0), probs.At(i, 1)
		if p0 < 0 || p1 < 0 || math.Abs(p0+p1-1) > 1e-9 {
			t.Fatalf("invalid probability row: %v %v", p0, p1)
		}
	}
}

func TestMulticlassClassifier(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 900
	x := tensor.New(n, 2).Randn(rng, 1)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		a, b := x.At(i, 0), x.At(i, 1)
		switch {
		case a > 0.3:
			labels[i] = 0
		case b > 0.3:
			labels[i] = 1
		default:
			labels[i] = 2
		}
	}
	c := NewClassifier(DefaultParams(), 3)
	if err := c.Fit(x, labels); err != nil {
		t.Fatal(err)
	}
	pred := c.Predict(x)
	if f1 := stats.MacroF1(labels, pred, 3); f1 < 0.85 {
		t.Fatalf("multiclass macro F1 = %v", f1)
	}
	probs := c.PredictProba(x)
	for i := 0; i < 10; i++ {
		s := 0.0
		for _, v := range probs.Row(i) {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("probabilities don't sum to 1: %v", s)
		}
	}
}

func TestClassifierErrors(t *testing.T) {
	c := NewClassifier(DefaultParams(), 2)
	if err := c.Fit(tensor.New(2, 1), []int{0}); err == nil {
		t.Fatal("expected length mismatch")
	}
	if err := c.Fit(tensor.New(2, 1), []int{0, 5}); err == nil {
		t.Fatal("expected label range error")
	}
	bad := NewClassifier(DefaultParams(), 1)
	if err := bad.Fit(tensor.New(2, 1), []int{0, 0}); err == nil {
		t.Fatal("expected class count error")
	}
}

func TestTreeHandlesConstantFeatures(t *testing.T) {
	n := 100
	x := tensor.New(n, 2) // all zeros
	y := make([]float64, n)
	for i := range y {
		y[i] = 5
	}
	r := NewRegressor(DefaultParams())
	if err := r.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	pred := r.Predict(x)
	for _, p := range pred {
		if math.Abs(p-5) > 1e-6 {
			t.Fatalf("constant target not learned: %v", p)
		}
	}
}

func TestRegressorGeneralises(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 1000
	x := tensor.New(n, 3).Randn(rng, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = x.At(i, 0) * x.At(i, 1)
	}
	xTr := x.SliceRows(0, 800)
	xTe := x.SliceRows(800, n)
	p := DefaultParams()
	p.NumRounds = 60
	r := NewRegressor(p)
	if err := r.Fit(xTr, y[:800]); err != nil {
		t.Fatal(err)
	}
	if d2 := stats.D2AbsoluteError(y[800:], r.Predict(xTe)); d2 < 0.3 {
		t.Fatalf("held-out D2 = %v", d2)
	}
}
