//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"silofuse/internal/tensor"
)

// checkLayerGradients verifies Backward against central finite differences
// for both the input gradient and all parameter gradients, using the scalar
// loss L = Σ output ⊙ R for a fixed random R.
func checkLayerGradients(t *testing.T, l Layer, x *tensor.Matrix, tol float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))

	out := l.Forward(x, false)
	r := tensor.New(out.Rows, out.Cols).Randn(rng, 1)
	ZeroGrads(l.Params())
	gradIn := l.Backward(r.Clone())

	loss := func() float64 {
		o := l.Forward(x, false)
		s := 0.0
		for i := range o.Data {
			s += o.Data[i] * r.Data[i]
		}
		return s
	}

	const h = 1e-5
	// Input gradient.
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss()
		x.Data[i] = orig - h
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-gradIn.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input grad mismatch at %d: analytic %g vs numeric %g", i, gradIn.Data[i], num)
		}
	}
	// Parameter gradients.
	for _, p := range l.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			perturb(p, i, orig+h)
			lp := loss()
			perturb(p, i, orig-h)
			lm := loss()
			perturb(p, i, orig)
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s grad mismatch at %d: analytic %g vs numeric %g", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

// perturb sets element i of p's value to v, as every writer of a value does:
// through Changed, so that a layer holding p packed repacks it.
func perturb(p *Param, i int, v float64) {
	p.Value.Data[i] = v
	p.Changed()
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(rng, 5, 3)
	x := tensor.New(4, 5).Randn(rng, 1)
	checkLayerGradients(t, l, x, 1e-5)
}

func TestGELUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := tensor.New(3, 6).Randn(rng, 1.5)
	checkLayerGradients(t, &GELU{}, x, 1e-5)
}

func TestLeakyReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(3, 6).Randn(rng, 1.5)
	checkLayerGradients(t, NewLeakyReLU(0.2), x, 1e-5)
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLayerNorm(7)
	// Non-trivial gamma/beta so their gradients are exercised.
	l.Gamma.Value.Randn(rng, 1)
	l.Beta.Value.Randn(rng, 1)
	x := tensor.New(4, 7).Randn(rng, 2)
	checkLayerGradients(t, l, x, 1e-4)
}

func TestConv1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewConv1D(rng, 2, 3, 3, 2, 1) // inC=2, outC=3, k=3, stride=2, pad=1
	x := tensor.New(2, 2*8).Randn(rng, 1)
	checkLayerGradients(t, c, x, 1e-4)
}

func TestConvTranspose1DGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewConvTranspose1D(rng, 3, 2, 4, 2, 1)
	x := tensor.New(2, 3*5).Randn(rng, 1)
	checkLayerGradients(t, c, x, 1e-4)
}

func TestSequentialGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := NewSequential(NewLinear(rng, 4, 8), &GELU{}, NewLinear(rng, 8, 3), &GELU{})
	x := tensor.New(3, 4).Randn(rng, 1)
	checkLayerGradients(t, seq, x, 1e-4)
}

func TestDiffusionMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDiffusionMLP(rng, 4, 8, 4, 2, 8, 0)
	x := tensor.New(3, 4).Randn(rng, 1)
	ts := []int{1, 5, 9}

	out := d.Forward(x, ts, false)
	r := tensor.New(out.Rows, out.Cols).Randn(rng, 1)
	ZeroGrads(d.Params())
	gradIn := d.Backward(r.Clone())

	loss := func() float64 {
		o := d.Forward(x, ts, false)
		s := 0.0
		for i := range o.Data {
			s += o.Data[i] * r.Data[i]
		}
		return s
	}
	const h = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp := loss()
		x.Data[i] = orig - h
		lm := loss()
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-gradIn.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad mismatch at %d: %g vs %g", i, gradIn.Data[i], num)
		}
	}
	for _, p := range d.Params() {
		for i := 0; i < len(p.Value.Data); i += 7 { // sample every 7th for speed
			orig := p.Value.Data[i]
			perturb(p, i, orig+h)
			lp := loss()
			perturb(p, i, orig-h)
			lm := loss()
			perturb(p, i, orig)
			num := (lp - lm) / (2 * h)
			if math.Abs(num-p.Grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %s grad mismatch at %d: %g vs %g", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

// checkLossGradients verifies a loss function's gradient numerically.
func checkLossGrad(t *testing.T, name string, f func(x *tensor.Matrix) (float64, *tensor.Matrix), x *tensor.Matrix, tol float64) {
	t.Helper()
	_, grad := f(x)
	const h = 1e-6
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		lp, _ := f(x)
		x.Data[i] = orig - h
		lm, _ := f(x)
		x.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s grad mismatch at %d: analytic %g vs numeric %g", name, i, grad.Data[i], num)
		}
	}
}

func TestMSELossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	target := tensor.New(3, 4).Randn(rng, 1)
	x := tensor.New(3, 4).Randn(rng, 1)
	checkLossGrad(t, "mse", func(x *tensor.Matrix) (float64, *tensor.Matrix) {
		return MSELoss(x, target)
	}, x, 1e-5)
}

func TestCrossEntropyLossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.New(5, 3).Randn(rng, 1)
	labels := []int{0, 2, 1, 1, 0}
	checkLossGrad(t, "ce", func(x *tensor.Matrix) (float64, *tensor.Matrix) {
		return CrossEntropyLoss(x, labels)
	}, x, 1e-4)
}

func TestBCEWithLogitsLossGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := tensor.New(6, 1).Randn(rng, 2)
	targets := []float64{0, 1, 1, 0, 1, 0}
	checkLossGrad(t, "bce", func(x *tensor.Matrix) (float64, *tensor.Matrix) {
		return BCEWithLogitsLoss(x, targets)
	}, x, 1e-5)
}

func TestGaussianNLLGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	target := tensor.New(3, 4).Randn(rng, 1)
	mean := tensor.New(3, 4).Randn(rng, 1)
	logVar := tensor.New(3, 4).Randn(rng, 0.5)

	_, gm, glv := GaussianNLLLoss(mean, logVar, target)
	const h = 1e-6
	for i := range mean.Data {
		orig := mean.Data[i]
		mean.Data[i] = orig + h
		lp, _, _ := GaussianNLLLoss(mean, logVar, target)
		mean.Data[i] = orig - h
		lm, _, _ := GaussianNLLLoss(mean, logVar, target)
		mean.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-gm.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("gaussian nll mean grad mismatch at %d: %g vs %g", i, gm.Data[i], num)
		}
	}
	for i := range logVar.Data {
		orig := logVar.Data[i]
		logVar.Data[i] = orig + h
		lp, _, _ := GaussianNLLLoss(mean, logVar, target)
		logVar.Data[i] = orig - h
		lm, _, _ := GaussianNLLLoss(mean, logVar, target)
		logVar.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-glv.Data[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("gaussian nll logvar grad mismatch at %d: %g vs %g", i, glv.Data[i], num)
		}
	}
}

// checkWarmMatchesCold proves the workspace-reuse path is bit-identical to
// the cold-start path: a layer that has already run (and whose buffers are
// dirty with previous results) must produce exactly the same output, input
// gradient and parameter gradients as a freshly constructed twin. Compared
// with ==, not a tolerance — a fit's losses must not move when
// workspaces warm up.
func checkWarmMatchesCold(t *testing.T, name string, mk func() Layer, x, g *tensor.Matrix) {
	t.Helper()
	cold := mk()
	yCold := cold.Forward(x, true).Clone()
	ginCold := cold.Backward(g).Clone()

	warm := mk()
	// Dirty every workspace with one full step, then reset gradients as an
	// optimiser would.
	warm.Forward(x, true)
	warm.Backward(g)
	ZeroGrads(warm.Params())
	yWarm := warm.Forward(x, true)
	ginWarm := warm.Backward(g)

	for i := range yCold.Data {
		if yCold.Data[i] != yWarm.Data[i] {
			t.Fatalf("%s: warm output differs at %d: %v vs %v", name, i, yCold.Data[i], yWarm.Data[i])
		}
	}
	for i := range ginCold.Data {
		if ginCold.Data[i] != ginWarm.Data[i] {
			t.Fatalf("%s: warm input grad differs at %d: %v vs %v", name, i, ginCold.Data[i], ginWarm.Data[i])
		}
	}
	cp, wp := cold.Params(), warm.Params()
	for pi := range cp {
		for i := range cp[pi].Grad.Data {
			if cp[pi].Grad.Data[i] != wp[pi].Grad.Data[i] {
				t.Fatalf("%s: warm grad of %s differs at %d", name, cp[pi].Name, i)
			}
		}
	}
}

func TestWorkspaceReuseBitIdentical(t *testing.T) {
	dataRng := rand.New(rand.NewSource(41))
	x := tensor.New(9, 12).Randn(dataRng, 1)
	g := tensor.New(9, 12).Randn(dataRng, 1)
	gHalf := tensor.New(9, 6).Randn(dataRng, 1)

	mkRng := func() *rand.Rand { return rand.New(rand.NewSource(42)) }
	cases := []struct {
		name string
		mk   func() Layer
		g    *tensor.Matrix
	}{
		{"Linear", func() Layer { return NewLinear(mkRng(), 12, 6) }, gHalf},
		{"GELU", func() Layer { return &GELU{} }, g},
		{"LeakyReLU", func() Layer { return NewLeakyReLU(0.2) }, g},
		{"LayerNorm", func() Layer { return NewLayerNorm(12) }, g},
		{"Conv1D", func() Layer { return NewConv1D(mkRng(), 2, 2, 3, 1, 1) }, g},
		{"ConvTranspose1D", func() Layer { return NewConvTranspose1D(mkRng(), 2, 2, 3, 1, 1) }, g},
		{"Sequential", func() Layer {
			rng := mkRng()
			return NewSequential(NewLinear(rng, 12, 12), &GELU{}, NewLinear(rng, 12, 12))
		}, g},
	}
	for _, c := range cases {
		checkWarmMatchesCold(t, c.name, c.mk, x.Clone(), c.g.Clone())
	}
}

// TestDropoutWorkspaceKeepsRNGStream verifies two things at once: the
// reused-mask path draws exactly one rng.Float64 per element in the same
// order as the cold path, and a shape change falls back to fresh buffers.
// Two same-seeded instances see the same element counts, so their streams —
// and therefore their masks — must stay aligned even though one of them is
// forced through a workspace reallocation.
func TestDropoutWorkspaceKeepsRNGStream(t *testing.T) {
	dataRng := rand.New(rand.NewSource(43))
	x := tensor.New(6, 4).Randn(dataRng, 1)
	warmup := tensor.New(6, 4).Randn(dataRng, 1)   // same shape: warm reuse
	reshaped := tensor.New(4, 6).Randn(dataRng, 1) // same count, new shape: cold restart

	dWarm := NewDropout(rand.New(rand.NewSource(44)), 0.3)
	dWarm.Forward(warmup, true)
	yWarm := dWarm.Forward(x, true)

	dCold := NewDropout(rand.New(rand.NewSource(44)), 0.3)
	dCold.Forward(reshaped, true)
	yCold := dCold.Forward(x, true)

	for i := range yWarm.Data {
		if yWarm.Data[i] != yCold.Data[i] {
			t.Fatalf("dropout mask diverged at %d: %v vs %v", i, yWarm.Data[i], yCold.Data[i])
		}
	}
}

// TestLinearSteadyStateAllocs pins the zero-allocation contract for the
// densest layer on the hot path — including the transposed-weight workspace
// Backward refreshes every call and the params-only backward — and for the
// GELU that follows it (its pooled dispatch is pinned with the kernels, in
// tensor's TestPooledDispatchAllocs).
func TestLinearSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	l := NewLinear(rng, 64, 64)
	act := &GELU{}
	x := tensor.New(128, 64).Randn(rng, 1)
	g := tensor.New(128, 64).Randn(rng, 1)
	logits, ceGrad := x.Row(0), make([]float64, 64)
	opt := NewAdam(l.Params(), 1e-3)
	steps := map[string]func(){
		"Adam step":      opt.Step,
		"SoftmaxRowInto": func() { SoftmaxRowInto(ceGrad, logits) },
		"Linear step": func() {
			l.Forward(x, true)
			l.Backward(g)
		},
		"Linear params-only step": func() {
			l.Forward(x, true)
			l.BackwardParams(g)
		},
		"GELU step": func() {
			act.Forward(x, true)
			act.Backward(g)
		},
		"CrossEntropyRowInto": func() { CrossEntropyRowInto(ceGrad, logits, 3, 128) },
	}
	for name, step := range steps {
		step()
		if allocs := testing.AllocsPerRun(50, step); allocs != 0 {
			t.Errorf("warm %s performs %v allocs, want 0", name, allocs)
		}
	}
}

// adamReference is Adam.Step as one serial loop per parameter followed by a
// separate zeroing pass — the form the pooled sweep replaced.
func adamReference(ps []*Param, m, v [][]float64, t int, lr float64) {
	beta1, beta2, eps := 0.9, 0.999, 1e-8 // variables: 1-beta1 must round as it does at run time
	bc1 := 1 - math.Pow(beta1, float64(t))
	bc2 := 1 - math.Pow(beta2, float64(t))
	for i, p := range ps {
		for j, g := range p.Grad.Data {
			m[i][j] = beta1*m[i][j] + (1-beta1)*g
			v[i][j] = beta2*v[i][j] + (1-beta2)*g*g
			mHat := m[i][j] / bc1
			vHat := v[i][j] / bc2
			p.Value.Data[j] -= lr * mHat / (math.Sqrt(vHat) + eps)
		}
	}
	ZeroGrads(ps)
}

// TestAdamSweepMatchesSerial pins the pooled Adam sweep to the serial loop's
// bits over three steps, on parameters one element either side of tensor's
// parallel threshold (2^16 elements) and exactly on it, with one worker and
// with four, and checks Step leaves every gradient zero.
func TestAdamSweepMatchesSerial(t *testing.T) {
	const threshold = 1 << 16
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(48))
		var got, want []*Param
		var m, v [][]float64
		for _, n := range []int{7, threshold - 1, threshold, threshold + 1} {
			w := tensor.New(1, n).Randn(rng, 1)
			got = append(got, NewParam("w", w))
			want = append(want, NewParam("w", w.Clone()))
			m, v = append(m, make([]float64, n)), append(v, make([]float64, n))
		}
		opt := NewAdam(got, 1e-3)
		for step := 1; step <= 3; step++ {
			for i := range got {
				got[i].EnsureGrad().Randn(rng, 1)
				tensor.CopyInto(want[i].EnsureGrad(), got[i].Grad)
			}
			opt.Step()
			adamReference(want, m, v, step, 1e-3)
			for i := range got {
				for j := range got[i].Value.Data {
					if got[i].Value.Data[j] != want[i].Value.Data[j] {
						t.Fatalf("procs %d step %d param %d: weight %d is %v, serial form %v", procs, step, i, j, got[i].Value.Data[j], want[i].Value.Data[j])
					}
					if got[i].Grad.Data[j] != 0 {
						t.Fatalf("procs %d step %d param %d: gradient %d left at %v", procs, step, i, j, got[i].Grad.Data[j])
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// sparseGrad returns a gradient with exact zeros sprinkled in, as ReLU and
// dropout produce, so the coefficient skip paths of g·Wᵀ run.
func sparseGrad(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	g := tensor.New(rows, cols).Randn(rng, 1)
	for i := range g.Data {
		if rng.Intn(3) == 0 {
			g.Data[i] = 0
		}
	}
	return g
}

// TestLinearBackwardMatchesDotForm pins the input gradient to the bits of
// the dot-product form g·Wᵀ = MatMulT2Into(g, W) that Backward computed
// before it moved to a transposed-weight workspace, on dense and sparse
// gradients, serially and through the pool, warm and after a weight update.
func TestLinearBackwardMatchesDotForm(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		rng := rand.New(rand.NewSource(52))
		for _, d := range [][3]int{{3, 5, 2}, {128, 64, 96}, {33, 47, 130}} {
			rows, in, out := d[0], d[1], d[2]
			l := NewLinear(rng, in, out)
			x := tensor.New(rows, in).Randn(rng, 1)
			for step, g := range []*tensor.Matrix{tensor.New(rows, out).Randn(rng, 1), sparseGrad(rng, rows, out)} {
				l.Forward(x, true)
				got := l.Backward(g)
				want := tensor.MatMulT2Into(tensor.New(rows, in), g, l.W.Value)
				for i := range want.Data {
					if want.Data[i] != got.Data[i] {
						t.Fatalf("procs=%d %v step %d: input grad differs from dot form at %d: %v vs %v", procs, d, step, i, want.Data[i], got.Data[i])
					}
				}
				// Move the weights so a stale transposed copy would show.
				l.W.Value.AddScaled(l.W.Grad, -0.01)
				l.W.Changed()
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBackwardParamsMatchesBackward proves the params-only backward leaves
// exactly the parameter gradients Backward leaves, for a lone Linear and for
// a Sequential whose first layer is one.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	dataRng := rand.New(rand.NewSource(53))
	x := tensor.New(17, 12).Randn(dataRng, 1)
	g := tensor.New(17, 6).Randn(dataRng, 1)
	mk := func() *Sequential {
		rng := rand.New(rand.NewSource(54))
		return NewSequential(NewLinear(rng, 12, 9), &GELU{}, NewLinear(rng, 9, 6))
	}
	full, params := mk(), mk()
	// Two accumulating passes: the second adds onto non-zero grads.
	for pass := 0; pass < 2; pass++ {
		full.Forward(x, true)
		full.Backward(g)
		params.Forward(x, true)
		params.BackwardParams(g)
	}
	fp, pp := full.Params(), params.Params()
	for pi := range fp {
		for i := range fp[pi].Grad.Data {
			if fp[pi].Grad.Data[i] != pp[pi].Grad.Data[i] {
				t.Fatalf("param %d (%s): grad differs at %d: %v vs %v", pi, fp[pi].Name, i, fp[pi].Grad.Data[i], pp[pi].Grad.Data[i])
			}
		}
	}
	// A first layer that is not a Linear still gets its Backward.
	act := NewSequential(&GELU{}, NewLinear(rand.New(rand.NewSource(55)), 12, 6))
	act.Forward(x, true)
	act.BackwardParams(g)
	NewSequential().BackwardParams(g)
}

func BenchmarkLinearForward(b *testing.B) {
	rng := rand.New(rand.NewSource(46))
	l := NewLinear(rng, 64, 64)
	x := tensor.New(128, 64).Randn(rng, 1)
	l.Forward(x, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Forward(x, true)
	}
}

func BenchmarkLinearBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(47))
	l := NewLinear(rng, 64, 64)
	x := tensor.New(128, 64).Randn(rng, 1)
	g := tensor.New(128, 64).Randn(rng, 1)
	l.Forward(x, true)
	l.Backward(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Backward(g)
	}
}

// TestGELUKeptErfMatchesRecomputed pins the training GELU, whose Backward
// reads the 1 + erf its Forward kept, to the evaluation-mode pair that takes
// the erf twice: same outputs and same input gradients, bit for bit, serially
// and through the pool — and an evaluation Forward keeps nothing.
func TestGELUKeptErfMatchesRecomputed(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	x := tensor.New(300, 256).Randn(rng, 2)
	g := tensor.New(300, 256).Randn(rng, 1)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		recompute, kept := &GELU{}, &GELU{}
		wantOut := recompute.Forward(x, false)
		if recompute.gin != nil {
			t.Error("evaluation Forward allocated a workspace for the erf")
		}
		wantGrad := recompute.Backward(g)
		if recompute.kept {
			t.Error("evaluation Forward claims to have kept the erf")
		}
		gotOut := kept.Forward(x, true)
		gotGrad := kept.Backward(g)
		for i := range wantOut.Data {
			if wantOut.Data[i] != gotOut.Data[i] || wantGrad.Data[i] != gotGrad.Data[i] {
				t.Fatalf("GOMAXPROCS=%d element %d: out %v vs %v, grad %v vs %v", procs, i, wantOut.Data[i], gotOut.Data[i], wantGrad.Data[i], gotGrad.Data[i])
			}
		}
		// The gradient overwrote the kept erf: a second Backward recomputes.
		again := kept.Backward(g)
		for i := range wantGrad.Data {
			if wantGrad.Data[i] != again.Data[i] {
				t.Fatalf("GOMAXPROCS=%d element %d: second Backward read its own output as the kept erf", procs, i)
			}
		}
		// A later evaluation Forward must not leave Backward on stale erf.
		kept.Forward(x, true)
		kept.Forward(g, false)
		stale := kept.Backward(g)
		recompute.Forward(g, false)
		fresh := recompute.Backward(g)
		for i := range fresh.Data {
			if fresh.Data[i] != stale.Data[i] {
				t.Fatalf("GOMAXPROCS=%d element %d: Backward after an evaluation Forward read the kept erf of an older input", procs, i)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestUniformTimestepForwardMatchesPerRow pins the denoising-step shortcut —
// one projected embedding row added to every row — to the stacked per-row
// form, which a training-mode Forward of a dropout-free backbone still runs,
// at 1, 64 and 500 rows; and the shortcut is allocation-free once warm.
func TestUniformTimestepForwardMatchesPerRow(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	d := NewDiffusionMLP(rng, 12, 64, 12, 2, 32, 0)
	d.WarmTimesteps(50)
	for _, rows := range []int{1, 64, 500} {
		x := tensor.New(rows, 12).Randn(rng, 1)
		ts := make([]int, rows)
		for i := range ts {
			ts[i] = 37
		}
		want := d.Forward(x, ts, true).Clone()
		got := d.Forward(x, ts, false)
		for i := range want.Data {
			if want.Data[i] != got.Data[i] {
				t.Fatalf("%d rows, element %d: per-row %v, uniform %v", rows, i, want.Data[i], got.Data[i])
			}
		}
		if allocs := testing.AllocsPerRun(20, func() { d.Forward(x, ts, false) }); allocs != 0 {
			t.Errorf("%d rows: warm uniform-timestep Forward performs %v allocs, want 0", rows, allocs)
		}
		// A batch with one different t takes the stacked form, to the same bits
		// for the rows that did not change.
		if rows > 1 {
			ts[rows-1] = 3
			mixed := d.Forward(x, ts, false)
			for i := range want.Data[:(rows-1)*12] {
				if want.Data[i] != mixed.Data[i] {
					t.Fatalf("%d rows, element %d: mixed-timestep batch moved a row whose t did not change", rows, i)
				}
			}
		}
	}
}
