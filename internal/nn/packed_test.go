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

// TestPackedWeightsNeverStale runs an inference Forward first, so every
// Linear holds its packed copy, then changes the weights through each of
// their writers — an Adam step, EMA's Fold, LoadParams — and requires the
// next inference Forward to equal the unpacked product with ==. A batch of
// 64 rows and widths of 8 and more put every product on the tile where the
// CPU has one.
func TestPackedWeightsNeverStale(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	net := NewSequential(NewLinear(rng, 24, 40), &GELU{}, NewLinear(rng, 40, 33), &GELU{}, NewLinear(rng, 33, 16))
	x := tensor.New(64, 24).Randn(rng, 1)
	check := func(after string) {
		t.Helper()
		got, want := net.Forward(x, false), unpackedForward(net, x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("after %s: output %d is %v, the unpacked product gives %v", after, i, got.Data[i], want.Data[i])
			}
		}
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
}
