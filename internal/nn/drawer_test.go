//silofuse:bitwise-ok the drawer must reproduce the inline masks bit for bit
package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"silofuse/internal/tensor"
)

// inlineStep is one training step of d taken layer by layer, with every
// Dropout drawing its mask in its own Forward, the way every Forward drew it
// before the drawer, and no layer fused with another: the reference the
// drawer and the fused layers are held to. The loss is ½‖out‖², so the output
// gradient is the output itself.
func inlineStep(d *DiffusionMLP, x *tensor.Matrix, ts []int) *tensor.Matrix {
	h := d.inProj.Forward(x, true)
	d.tfeat = tensor.Ensure(d.tfeat, len(ts), d.TimeDim)
	for i, t := range ts {
		copy(d.tfeat.Row(i), d.embedRow(t))
	}
	h = tensor.AddInto(tensor.New(h.Rows, h.Cols), h, d.timeProj.Forward(d.tfeat, true))
	for _, l := range d.blocks.Layers {
		if drop, ok := l.(*Dropout); ok {
			h = inlineDropout(drop, h)
			continue
		}
		h = l.Forward(h, true)
	}
	out := d.outProj.Forward(h, true).Clone()
	g := d.outProj.Backward(out)
	for i := len(d.blocks.Layers) - 1; i >= 0; i-- {
		g = d.blocks.Layers[i].Backward(g)
	}
	d.timeProj.BackwardParams(g)
	d.inProj.BackwardParams(g)
	return out
}

// inlineDropout is a training Dropout.Forward as it was written before the
// drawer: one draw from the rng per element in data order, the kept ones
// divided by 1-P. It leaves d the mask its Backward applies.
func inlineDropout(d *Dropout, x *tensor.Matrix) *tensor.Matrix {
	keep := 1 - d.P
	d.mask = tensor.New(x.Rows, x.Cols)
	out := tensor.New(x.Rows, x.Cols)
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = 1 / keep
			out.Data[i] = v / keep
		}
	}
	return out
}

// TestDropoutDrawerMatchesInlineMasks trains two copies of one backbone for
// five steps, one through Forward and BackwardParams — its masks drawn beside
// the products, its layers fused — and one through inlineStep, each step's
// input and timesteps drawn from each copy's own rng just before it, as a
// DDPM step draws them. Every output and, at the end, every weight must be
// equal with ==. After each step, and after ReleaseTraining, the process must
// have no more goroutines than before the first step: the drawer runs on the
// tensor pool's workers and leaves nothing behind. (Fewer is no leak: a
// goroutine of an earlier test may still be on its way out.)
func TestDropoutDrawerMatchesInlineMasks(t *testing.T) {
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		build := func() (*DiffusionMLP, *Adam, *rand.Rand) {
			rng := rand.New(rand.NewSource(81))
			d := NewDiffusionMLP(rng, 6, 32, 6, 3, 8, 0.3)
			return d, NewAdam(d.Params(), 1e-2), rng
		}
		got, gotOpt, gotRng := build()
		want, wantOpt, wantRng := build()
		draw := func(rng *rand.Rand) (*tensor.Matrix, []int) {
			ts := make([]int, 24)
			for i := range ts {
				ts[i] = rng.Intn(50)
			}
			return tensor.New(24, 6).Randn(rng, 1), ts
		}
		tensor.Beside(countNothing{}) // start the pool's workers before counting
		base := runtime.NumGoroutine()
		for step := 0; step < 5; step++ {
			x, ts := draw(gotRng)
			out := got.Forward(x, ts, true)
			got.BackwardParams(out.Clone())
			gotOpt.Step()
			x, ts = draw(wantRng)
			sameBits(t, "output", inlineStep(want, x, ts), out)
			wantOpt.Step()
			if n := runtime.NumGoroutine(); n > base {
				t.Fatalf("GOMAXPROCS=%d step %d: %d goroutines, %d before the first step", procs, step, n, base)
			}
		}
		for i, p := range got.Params() {
			sameBits(t, "weights of "+p.Name, want.Params()[i].Value, p.Value)
		}
		got.ReleaseTraining()
		gotOpt.ReleaseTraining()
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("GOMAXPROCS=%d after ReleaseTraining: %d goroutines, %d before the first step", procs, n, base)
		}
		runtime.GOMAXPROCS(prev)
	}
}

// countNothing is a RangeKernel with no work.
type countNothing struct{}

func (countNothing) RunRange(_, _ int) {}
