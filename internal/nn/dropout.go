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
}

// NewDropout creates a Dropout layer with drop probability p.
func NewDropout(rng *rand.Rand, p float64) *Dropout { return &Dropout{P: p, rng: rng} }

// Forward applies the dropout mask when train is true. The rng is consumed
// once per element in data order, so a reused workspace draws exactly the
// same mask sequence as the old allocating path.
func (d *Dropout) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train || d.P <= 0 {
		d.mask = nil
		return x
	}
	keep := 1 - d.P
	d.mask = tensor.Ensure(d.mask, x.Rows, x.Cols)
	d.out = tensor.Ensure(d.out, x.Rows, x.Cols)
	out := d.out
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask.Data[i] = 1 / keep
			out.Data[i] = v / keep
		} else {
			d.mask.Data[i] = 0
			out.Data[i] = 0
		}
	}
	return out
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
