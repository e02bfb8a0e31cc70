//silofuse:bitwise-ok a deferred weight-gradient pass must reproduce Backward bit for bit
package nn

import (
	"math/rand"
	"strings"
	"testing"

	"silofuse/internal/tensor"
)

// splitNet is one layer form under test: a training forward, the one-pass
// Backward, and its two passes apart.
type splitNet struct {
	forward    func(x *tensor.Matrix) *tensor.Matrix
	backward   func(g *tensor.Matrix) *tensor.Matrix
	input      func(g *tensor.Matrix) *tensor.Matrix
	take       func()
	params     []*Param
	in, outDim int
}

func linearNet(seed int64) splitNet {
	l := NewLinear(rand.New(rand.NewSource(seed)), 12, 7)
	return splitNet{
		forward:  func(x *tensor.Matrix) *tensor.Matrix { return l.Forward(x, true) },
		backward: l.Backward, input: l.BackwardInput, take: l.TakeGrads,
		params: l.Params(), in: 12, outDim: 7,
	}
}

// sequentialNet has every fused pair a training Sequential runs: Linear→GELU
// with and without a Dropout after it.
func sequentialNet(seed int64) splitNet {
	rng := rand.New(rand.NewSource(seed))
	s := NewSequential(NewLinear(rng, 12, 16), &GELU{}, NewDropout(rng, 0.2),
		NewLinear(rng, 16, 9), &GELU{}, NewLinear(rng, 9, 5))
	return splitNet{
		forward:  func(x *tensor.Matrix) *tensor.Matrix { return s.Forward(x, true) },
		backward: s.Backward, input: s.BackwardInput, take: s.TakeGrads,
		params: s.Params(), in: 12, outDim: 5,
	}
}

func diffusionNet(seed int64) splitNet {
	d := NewDiffusionMLP(rand.New(rand.NewSource(seed)), 6, 16, 6, 2, 8, 0.1)
	ts := []int{3, 0, 7, 7, 1, 9, 2, 5, 4, 8, 6}
	return splitNet{
		forward:  func(x *tensor.Matrix) *tensor.Matrix { return d.Forward(x, ts, true) },
		backward: d.Backward, input: d.BackwardInput, take: d.TakeGrads,
		params: d.Params(), in: 6, outDim: 6,
	}
}

// TestDeferredGradsMatchBackward: BackwardInput now and TakeGrads later leave
// the input gradient, every parameter gradient and, after Adam, every weight
// that Backward leaves, bit for bit — on a gradient known to be all +0 (the
// first pass after a step), on one that already holds a contribution (a
// second Backward before the step), and for every layer form.
func TestDeferredGradsMatchBackward(t *testing.T) {
	for _, form := range []struct {
		name string
		mk   func(int64) splitNet
	}{{"linear", linearNet}, {"sequential", sequentialNet}, {"diffusion", diffusionNet}} {
		t.Run(form.name, func(t *testing.T) {
			one, two := form.mk(61), form.mk(61)
			optOne, optTwo := NewAdam(one.params, 1e-2), NewAdam(two.params, 1e-2)
			rng := rand.New(rand.NewSource(62))
			for step := 0; step < 2; step++ {
				for pass := 0; pass < 2; pass++ {
					x := tensor.New(11, one.in).Randn(rng, 1)
					g := tensor.New(11, one.outDim).Randn(rng, 1)
					sameBits(t, "forward", one.forward(x), two.forward(x))
					want := one.backward(g).Clone()
					got := two.input(g)
					sameBits(t, "input gradient", want, got)
					two.take()
					for i, p := range one.params {
						sameBits(t, p.Name+" gradient", p.Grad, two.params[i].Grad)
					}
				}
				optOne.Step()
				optTwo.Step()
				for i, p := range one.params {
					sameBits(t, p.Name+" after the step", p.Value, two.params[i].Value)
				}
			}
		})
	}
}

// mustRefuse runs f and fails unless it panics with a message naming the
// pending gradient.
func mustRefuse(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "pending") {
			t.Fatalf("%s: recovered %v, want a refusal over a pending gradient", what, r)
		}
	}()
	f()
}

// TestPendingGradsRefused: while a BackwardInput's weight gradients are
// pending, an optimiser step, the layer's next Forward and a second
// BackwardInput are refused; after TakeGrads all three go through.
func TestPendingGradsRefused(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	x := tensor.New(5, 4).Randn(rng, 1)
	g := tensor.New(5, 3).Randn(rng, 1)
	for _, net := range []splitNet{linearNet(64), sequentialNet(64), diffusionNet(64)} {
		x := tensor.New(11, net.in).Randn(rng, 1)
		g := tensor.New(11, net.outDim).Randn(rng, 1)
		opt := NewAdam(net.params, 1e-3)
		net.forward(x)
		net.input(g)
		mustRefuse(t, "step", opt.Step)
		mustRefuse(t, "forward", func() { net.forward(x) })
		mustRefuse(t, "second backward", func() { net.input(g) })
		net.take()
		opt.Step()
		net.forward(x)
		net.backward(g)
	}
	// TakeGrads with nothing pending leaves the gradients alone.
	l := NewLinear(rng, 4, 3)
	l.Forward(x, true)
	l.Backward(g)
	before := l.W.Grad.Clone()
	l.TakeGrads()
	sameBits(t, "W gradient after an idle TakeGrads", before, l.W.Grad)
}
