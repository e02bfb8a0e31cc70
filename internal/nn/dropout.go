package nn

import (
	"math/rand"

	"silofuse/internal/tensor"
)

// Dropout zeroes each activation with probability P during training and
// rescales survivors by 1/(1-P) (inverted dropout). It is the identity at
// inference time.
type Dropout struct {
	P    float64
	rng  *rand.Rand
	mask *tensor.Matrix

	out, gin *tensor.Matrix // persistent workspaces

	// pending says the next training Forward's mask is being drawn by a
	// DiffusionMLP's drawer, which sends on drawn when it is done.
	pending bool
	drawn   chan struct{}

	apply dropoutApply // the Forward in flight, as a RangeKernel
}

// NewDropout creates a Dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies the dropout mask when train is true. The rng is consumed
// once per element in data order, so a reused workspace draws exactly the
// same mask sequence as the old allocating path; the mask is drawn here or,
// in a DiffusionMLP, beside the products ahead of it. Applying it divides
// every kept element by 1-P on the pool.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	k, out := d.applier(x)
	tensor.ParallelRange(k, len(x.Data), len(x.Data))
	return out
}

// applier readies a training Forward on x: it has the mask drawn, or waits
// for the drawer's, and returns the kernel that applies it, element by
// element, and the matrix that kernel fills.
func (d *Dropout) applier(x *tensor.Matrix) (tensor.RangeKernel, *tensor.Matrix) {
	if d.pending {
		<-d.drawn
		d.pending = false
	} else {
		d.mask = tensor.Ensure(d.mask, x.Rows, x.Cols)
		d.drawMask()
	}
	d.out = tensor.Ensure(d.out, x.Rows, x.Cols)
	d.apply = dropoutApply{x: x, mask: d.mask, out: d.out, keep: 1 - d.P}
	return &d.apply, d.out
}

// drawMask fills the mask from the rng: 1/(1-P) for a kept element, 0 for a
// dropped one.
func (d *Dropout) drawMask() {
	keep := 1 - d.P
	for i := range d.mask.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = 1 / keep
		} else {
			d.mask.Data[i] = 0
		}
	}
}

// prepare sizes the mask of the next training Forward, on an input of rows x
// cols, for a drawer to fill.
func (d *Dropout) prepare(rows, cols int) {
	d.mask = tensor.Ensure(d.mask, rows, cols)
	if d.drawn == nil {
		d.drawn = make(chan struct{}, 1)
	}
	d.pending = true
}

// dropoutApply stores x/keep where the mask keeps an element and 0 where it
// drops one: each element on its own, so the pool may split it anywhere.
type dropoutApply struct {
	x, mask, out *tensor.Matrix
	keep         float64
}

func (a *dropoutApply) RunRange(lo, hi int) {
	x, mask, out := a.x.Data[lo:hi], a.mask.Data[lo:hi], a.out.Data[lo:hi]
	for i, v := range x {
		if mask[i] != 0 { //silofuse:bitwise-ok a mask element is exactly 0 or 1/keep
			out[i] = v / a.keep
		} else {
			out[i] = 0
		}
	}
}

// Backward applies the same mask to the incoming gradient.
func (d *Dropout) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if d.mask == nil {
		return gradOut
	}
	d.gin = tensor.Ensure(d.gin, gradOut.Rows, gradOut.Cols)
	return tensor.MulElemInto(d.gin, gradOut, d.mask)
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// ReleaseTraining drops the mask and both workspaces.
func (d *Dropout) ReleaseTraining() { *d = Dropout{P: d.P, rng: d.rng} }
