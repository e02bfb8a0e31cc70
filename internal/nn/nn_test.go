//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package nn

import (
	"math"
	"math/rand"
	"testing"

	"silofuse/internal/tensor"
)

func TestDropoutTrainEval(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDropout(rng, 0.5)
	x := tensor.New(10, 10).Fill(1)
	outTrain := d.Forward(x, true)
	zeros := 0
	for _, v := range outTrain.Data {
		if v == 0 {
			zeros++
		} else if math.Abs(v-2) > 1e-12 {
			t.Fatalf("surviving activation not rescaled: %v", v)
		}
	}
	if zeros == 0 || zeros == len(outTrain.Data) {
		t.Fatalf("dropout mask degenerate: %d zeros of %d", zeros, len(outTrain.Data))
	}
	outEval := d.Forward(x, false)
	for _, v := range outEval.Data {
		if v != 1 {
			t.Fatal("dropout must be identity at eval time")
		}
	}
}

func TestDropoutBackwardUsesMask(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDropout(rng, 0.5)
	x := tensor.New(4, 4).Fill(1)
	out := d.Forward(x, true)
	g := tensor.New(4, 4).Fill(1)
	gin := d.Backward(g)
	for i := range out.Data {
		if (out.Data[i] == 0) != (gin.Data[i] == 0) {
			t.Fatal("backward mask must match forward mask")
		}
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := NewParam("w", tensor.FromSlice(1, 2, []float64{5, -3}))
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		for j := range p.Value.Data {
			p.EnsureGrad().Data[j] = 2 * p.Value.Data[j]
		}
		opt.Step()
	}
	for _, v := range p.Value.Data {
		if math.Abs(v) > 1e-3 {
			t.Fatalf("Adam failed to minimise: %v", p.Value.Data)
		}
	}
}

func TestAdamGradClipping(t *testing.T) {
	p := NewParam("w", tensor.FromSlice(1, 1, []float64{0}))
	opt := NewAdam([]*Param{p}, 0.001)
	opt.ClipNorm = 1
	p.EnsureGrad().Data[0] = 1000
	opt.Step()
	// After clipping, the first Adam step magnitude is ≈ lr.
	if math.Abs(p.Value.Data[0]) > 0.0011 {
		t.Fatalf("clipped step too large: %v", p.Value.Data[0])
	}
}

// TestMLPLearnsXOR trains a small MLP on the XOR function — an end-to-end
// sanity check that forward, backward and Adam compose correctly.
func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewSequential(NewLinear(rng, 2, 16), &GELU{}, NewLinear(rng, 16, 1))
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := []float64{0, 1, 1, 0}
	opt := NewAdam(net.Params(), 0.05)
	var loss float64
	for i := 0; i < 500; i++ {
		out := net.Forward(x, true)
		var grad *tensor.Matrix
		loss, grad = BCEWithLogitsLoss(out, y)
		net.Backward(grad)
		opt.Step()
	}
	if loss > 0.05 {
		t.Fatalf("MLP failed to learn XOR: loss %v", loss)
	}
	out := net.Forward(x, false)
	for i, target := range y {
		p := 1 / (1 + math.Exp(-out.Data[i]))
		if math.Abs(p-target) > 0.2 {
			t.Fatalf("XOR prediction %d: p=%v want %v", i, p, target)
		}
	}
}

func TestSinusoidalEmbeddingProperties(t *testing.T) {
	a := make([]float64, 16)
	b := make([]float64, 16)
	SinusoidalEmbedding(3, a)
	SinusoidalEmbedding(3, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding must be deterministic")
		}
		if a[i] < -1 || a[i] > 1 {
			t.Fatalf("embedding out of [-1,1]: %v", a[i])
		}
	}
	SinusoidalEmbedding(4, b)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different timesteps must embed differently")
	}
	// t=0: all sines 0, all cosines 1.
	SinusoidalEmbedding(0, a)
	for i := 0; i < 8; i++ {
		if a[i] != 0 || a[8+i] != 1 {
			t.Fatalf("t=0 embedding wrong: %v", a)
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := tensor.New(5, 7).Randn(rng, 3)
	p := Softmax(x)
	for i := 0; i < p.Rows; i++ {
		s := 0.0
		for _, v := range p.Row(i) {
			if v < 0 {
				t.Fatal("negative probability")
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	x := tensor.FromRows([][]float64{{1000, 1001, 999}})
	p := Softmax(x)
	for _, v := range p.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("softmax overflow with large logits")
		}
	}
}

func TestParamCountAndZeroGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLinear(rng, 3, 2)
	l.W.EnsureGrad().Fill(1)
	ZeroGrads(l.Params()) // the bias has no gradient yet: nothing to clear, nothing allocated
	if l.W.Grad.Sum() != 0 || l.B.Grad != nil {
		t.Fatal("ZeroGrads did not clear")
	}
}

// TestDiffusionMLPLearnsIdentityNoise checks the backbone can regress a
// simple target that depends on the timestep, verifying time conditioning
// actually influences the output.
func TestDiffusionMLPTimeConditioning(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := NewDiffusionMLP(rng, 2, 32, 2, 2, 16, 0)
	opt := NewAdam(d.Params(), 0.01)
	x := tensor.New(16, 2).Randn(rng, 1)
	// Target: output = sign depends on timestep parity.
	tsA := make([]int, 16)
	tsB := make([]int, 16)
	for i := range tsB {
		tsB[i] = 50
	}
	targetA := tensor.New(16, 2).Fill(1)
	targetB := tensor.New(16, 2).Fill(-1)
	for i := 0; i < 400; i++ {
		out := d.Forward(x, tsA, true)
		_, g := MSELoss(out, targetA)
		d.Backward(g)
		out = d.Forward(x, tsB, true)
		_, g = MSELoss(out, targetB)
		d.Backward(g)
		opt.Step()
	}
	// Forward reuses the backbone's workspaces, so capture the first mean
	// before the second call overwrites the returned buffer.
	meanA := d.Forward(x, tsA, false).Mean()
	meanB := d.Forward(x, tsB, false).Mean()
	if meanA < 0.5 || meanB > -0.5 {
		t.Fatalf("time conditioning not learned: %v vs %v", meanA, meanB)
	}
}

func TestConvShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewConv1D(rng, 1, 4, 3, 2, 1)
	x := tensor.New(2, 10).Randn(rng, 1)
	out := c.Forward(x, false)
	wantLen := c.OutLen(10)
	if out.Cols != 4*wantLen {
		t.Fatalf("conv out cols %d, want %d", out.Cols, 4*wantLen)
	}
	ct := NewConvTranspose1D(rng, 4, 1, 4, 2, 1)
	out2 := ct.Forward(out, false)
	if out2.Cols != ct.OutLen(wantLen) {
		t.Fatalf("convT out cols %d, want %d", out2.Cols, ct.OutLen(wantLen))
	}
}
