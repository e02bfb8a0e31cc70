package autoencoder

import (
	"fmt"
	"math/rand"

	"silofuse/internal/nn"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// inputLayer is the encoder's first layer, y = featurise(x)·W + b, computed
// from the raw table rows instead of from Encoder.Transform's one-hot
// matrix. A categorical cell selects one row of W (an embedding lookup) and
// a numeric cell scales one, so a 2932-way column costs one row add per
// sample where the dense product scanned 2932 coefficients to find the one
// that is not zero — and neither the rows x Width input nor its Width x
// hidden dW scratch is ever built.
//
// The weights it trains are bit-identical to those of nn.Linear on
// Transform(x): nn.Linear's kernels start each output row at +0, fuse the
// terms a[k]·W[k] into it in ascending k, skip every a[k] == 0 and end with
// the last add of the bias (or +0), and the loops below apply the same terms
// in the same order (spans ascend in k; 1·w is exactly w) and the same last
// add. The parameter gradient is likewise the dense kernel's ascending-row
// sum, on the condition that it is clear at entry — one
// backward per optimiser step, which is how every training loop runs;
// onto an already accumulated gradient the same terms associate
// differently than Linear's dW-then-add.
type inputLayer struct {
	W, B *nn.Param
	enc  *tabular.Encoder

	input *tensor.Matrix // raw rows of the last Forward
	out   *tensor.Matrix
	bsums []float64
}

// newInputLayer draws its weights exactly as nn.NewLinear(rng, enc.Width(),
// out) does, under the same parameter names, so rng streams and Save/Load
// streams are those of the dense layer.
func newInputLayer(rng *rand.Rand, enc *tabular.Encoder, out int) *inputLayer {
	lin := nn.NewLinear(rng, enc.Width(), out)
	return &inputLayer{W: lin.W, B: lin.B, enc: enc}
}

// term returns the one featurised coefficient column sp contributes for a
// cell holding v: the row of W it multiplies and its value — 1 at the
// category's row, or the standardised value at the numeric column's row. A
// code outside the column's cardinality panics (tabular.Column.Code).
func (l *inputLayer) term(sp tabular.Span, v float64) (row int, coef float64) {
	if sp.Kind == tabular.Categorical {
		return sp.Lo + l.enc.Schema.Columns[sp.Col].Code(v), 1
	}
	return sp.Lo, (v - l.enc.Mean[sp.Col]) / l.enc.Std[sp.Col]
}

// Forward maps raw rows x (one column per schema column, categories as
// codes) to featurise(x)·W + b.
func (l *inputLayer) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	if x.Cols != len(l.enc.Spans) {
		panic(fmt.Sprintf("autoencoder: encoder fitted on %d cols, got %d", len(l.enc.Spans), x.Cols))
	}
	l.input = x
	w := l.W.Value
	l.out = tensor.Ensure(l.out, x.Rows, w.Cols)
	bias := l.B.Value.Data
	for r := 0; r < x.Rows; r++ {
		src, dst := x.Row(r), l.out.Row(r)
		clear(dst)
		for _, sp := range l.enc.Spans {
			k, coef := l.term(sp, src[sp.Col])
			if coef == 0 { //silofuse:bitwise-ok the dense kernels' zero-skip, kept so the add chains match
				continue
			}
			tensor.Axpy(dst, w.Row(k), coef)
		}
		for j, bv := range bias {
			dst[j] += bv + 0 // the dense kernels' last add: -0 read as +0
		}
	}
	return l.out
}

// BackwardParams accumulates dW = featurise(x)ᵀ·g as a scatter-add of the
// rows of g, in ascending row order, and db = Σ_rows g. The input is data,
// so there is no input gradient to compute.
func (l *inputLayer) BackwardParams(gradOut *tensor.Matrix) {
	wGrad := l.W.EnsureGrad()
	for r := 0; r < gradOut.Rows; r++ {
		src, g := l.input.Row(r), gradOut.Row(r)
		for _, sp := range l.enc.Spans {
			k, coef := l.term(sp, src[sp.Col])
			if coef == 0 { //silofuse:bitwise-ok the dense kernels' zero-skip, kept so the add chains match
				continue
			}
			tensor.Axpy(wGrad.Row(k), g, coef)
		}
	}
	// The dense kernels end every chain with +0 added, which stores a chain
	// an underflowing product left at -0 as +0. A categorical term's
	// coefficient is 1, whose products are exact and never underflow, so
	// only a numeric column's row can need it.
	for _, sp := range l.enc.Spans {
		if sp.Kind != tabular.Categorical {
			row := wGrad.Row(sp.Lo)
			for j := range row {
				row[j] += 0
			}
		}
	}
	// Column sums first, then one add into the gradient: nn.Linear's order.
	l.bsums = tensor.EnsureVec(l.bsums, gradOut.Cols)
	gradOut.ColSumsInto(l.bsums)
	bGrad := l.B.EnsureGrad().Data
	for j, v := range l.bsums {
		bGrad[j] += v
	}
}

// ReleaseTraining drops the cached input and both workspaces.
func (l *inputLayer) ReleaseTraining() { *l = inputLayer{W: l.W, B: l.B, enc: l.enc} }

// Backward is BackwardParams; it returns nil because raw table cells have
// no gradient.
func (l *inputLayer) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(gradOut)
	return nil
}

// Params returns the weight and bias parameters.
func (l *inputLayer) Params() []*nn.Param { return []*nn.Param{l.W, l.B} }
