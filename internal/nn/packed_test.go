//silofuse:bitwise-ok the packed inference path must reproduce the unpacked one bit for bit
package nn

import (
	"bytes"
	"math/rand"
	"testing"

	"silofuse/internal/tensor"
)

// unpackedForward is an inference Forward of a Sequential of Linear and
// GELU layers taken with the kernels a training Forward uses: W is read, not
// a packed copy of it, and no layer is fused with the next.
func unpackedForward(s *Sequential, x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		switch l := l.(type) {
		case *Linear:
			x = tensor.MatMulAddRowInto(tensor.New(x.Rows, l.W.Value.Cols), x, l.W.Value, l.B.Value)
		case *GELU:
			x = tensor.GELUInto(tensor.New(x.Rows, x.Cols), x)
		}
	}
	return x
}

// unpackedBackward is a Backward through the same layers taken with the
// unpacked kernels, after unpackedForward's forward from x: dW = xᵀg and db =
// Σ g from a product and column sums of their own, g·Wᵀ on a transposed copy
// of W, GELU's gradient recomputed. It returns the input gradient and every
// parameter's gradient, in Params order.
func unpackedBackward(s *Sequential, x, g *tensor.Matrix) (*tensor.Matrix, []*tensor.Matrix) {
	inputs := make([]*tensor.Matrix, len(s.Layers))
	for i, l := range s.Layers {
		inputs[i] = x
		switch l := l.(type) {
		case *Linear:
			x = tensor.MatMulAddRowInto(tensor.New(x.Rows, l.W.Value.Cols), x, l.W.Value, l.B.Value)
		case *GELU:
			x = tensor.GELUInto(tensor.New(x.Rows, x.Cols), x)
		}
	}
	var grads []*tensor.Matrix
	for i := len(s.Layers) - 1; i >= 0; i-- {
		switch l := s.Layers[i].(type) {
		case *Linear:
			w := l.W.Value
			dW := tensor.MatMulT1Into(tensor.New(w.Rows, w.Cols), inputs[i], g)
			db := tensor.FromSlice(1, w.Cols, g.ColSums())
			grads = append([]*tensor.Matrix{dW, db}, grads...)
			g = tensor.MatMulInto(tensor.New(g.Rows, w.Rows), g, w.T())
		case *GELU:
			g = tensor.GELUGradInto(tensor.New(g.Rows, g.Cols), inputs[i], g)
		}
	}
	return g, grads
}

// sameBits fails t unless got and want hold the same bits.
func sameBits(t *testing.T, what string, want, got *tensor.Matrix) {
	t.Helper()
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("%s: element %d is %v, the unpacked kernels give %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestPackedWeightsNeverStale runs an inference and a training step first, so
// every Linear holds its packed copies of W and Wᵀ, then changes the weights
// through each of their writers — an Adam step, EMA's Fold, LoadParams and
// the gradient check's perturbation — and requires the next inference
// Forward, training Forward and Backward (input gradient and every weight and
// bias gradient) to equal the unpacked products with ==. A batch of 64 rows
// and widths of 8 and more put every product on the tile where the CPU has
// one.
func TestPackedWeightsNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	net := NewSequential(NewLinear(rng, 24, 40), &GELU{}, NewLinear(rng, 40, 33), &GELU{}, NewLinear(rng, 33, 16))
	x := tensor.New(64, 24).Randn(rng, 1)
	g := tensor.New(64, 16).Randn(rng, 1)
	check := func(after string) {
		t.Helper()
		want := unpackedForward(net, x)
		sameBits(t, "after "+after+", inference Forward", want, net.Forward(x, false))
		sameBits(t, "after "+after+", training Forward", want, net.Forward(x, true))
		ZeroGrads(net.Params())
		gin := net.Backward(g)
		wantGin, wantGrads := unpackedBackward(net, x, g)
		sameBits(t, "after "+after+", input gradient", wantGin, gin)
		for i, p := range net.Params() {
			sameBits(t, "after "+after+", gradient of "+p.Name, wantGrads[i], p.Grad)
		}
		ZeroGrads(net.Params())
	}
	step := func(opt *Adam) {
		out := net.Forward(x, true)
		net.Backward(out.Clone())
		opt.Step()
	}
	check("the first Forward")

	opt := NewAdam(net.Params(), 1e-2)
	step(opt)
	check("an Adam step")

	ema := NewEMA(net.Params(), 0.5)
	step(opt)
	ema.Update()
	check("an Adam step under EMA")
	ema.Fold()
	check("EMA's Fold")

	other := NewSequential(NewLinear(rng, 24, 40), &GELU{}, NewLinear(rng, 40, 33), &GELU{}, NewLinear(rng, 33, 16))
	var stream bytes.Buffer
	if err := SaveParams(&stream, other.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&stream, net.Params()); err != nil {
		t.Fatal(err)
	}
	check("LoadParams")

	for _, p := range net.Params() {
		perturb(p, len(p.Value.Data)/2, p.Value.Data[len(p.Value.Data)/2]+1e-5)
	}
	check("the gradient check's perturbation")
}

// TestSecondBackwardAddsAsBefore runs two Backwards through a Linear before
// any step, as a GAN discriminator's real-then-fake pass does: the first
// stores dW and db into gradients known to be zero, the second must add onto
// them from a workspace, and the result must be the bits of adding both onto
// a zero gradient, dW then dW', as every Backward did before.
func TestSecondBackwardAddsAsBefore(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	l := NewLinear(rng, 40, 24)
	x1, x2 := tensor.New(64, 40).Randn(rng, 1), tensor.New(64, 40).Randn(rng, 1)
	g1, g2 := tensor.New(64, 24).Randn(rng, 1), tensor.New(64, 24).Randn(rng, 1)
	for round := 0; round < 2; round++ { // the second after a step cleared the gradients
		wantW, wantB := tensor.New(40, 24), tensor.New(1, 24)
		for _, xg := range [][2]*tensor.Matrix{{x1, g1}, {x2, g2}} {
			tensor.AddInto(wantW, wantW, tensor.MatMulT1Into(tensor.New(40, 24), xg[0], xg[1]))
			tensor.AddInto(wantB, wantB, tensor.FromSlice(1, 24, xg[1].ColSums()))
		}
		l.Forward(x1, true)
		l.Backward(g1)
		l.Forward(x2, true)
		l.Backward(g2)
		sameBits(t, "weight gradient", wantW, l.W.Grad)
		sameBits(t, "bias gradient", wantB, l.B.Grad)
		NewAdam(l.Params(), 1e-3).Step()
	}
}
