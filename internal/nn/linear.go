package nn

import (
	"math"
	"math/rand"

	"silofuse/internal/tensor"
)

// Linear is a fully connected layer: y = xW + b, with W of shape (in, out).
type Linear struct {
	W, B  *Param
	input *tensor.Matrix // cached for Backward

	// Persistent workspaces, reused verbatim while the batch shape is
	// unchanged; see the layer contract in layer.go. wT is a transposed-shape
	// view of dW's storage.
	out, dW, gin, wT *tensor.Matrix
	bsums            []float64

	// packed is W in the tile's panel layout for inference Forwards, as of
	// W's version packedAt: weights that have not changed since are not
	// packed again.
	packed   tensor.Packed
	packedAt uint64
}

// NewLinear creates a Linear layer with Kaiming-uniform initialised weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	bound := math.Sqrt(1.0 / float64(in))
	w := tensor.New(in, out).RandUniform(rng, -bound, bound)
	b := tensor.New(1, out).RandUniform(rng, -bound, bound)
	return &Linear{W: NewParam("linear.W", w), B: NewParam("linear.b", b)}
}

// Forward computes xW + b. A training Forward packs W's panels per call, as
// its weights change every step; an inference Forward reads them from the
// packed copy, which is rebuilt only when W has changed since it was made.
// The bits are the same either way.
func (l *Linear) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	if !train {
		return l.infer(x, nil)
	}
	l.input = x
	l.out = tensor.Ensure(l.out, x.Rows, l.W.Value.Cols)
	return tensor.MatMulAddRowInto(l.out, x, l.W.Value, l.B.Value)
}

// forwardGELU is an inference Forward of l followed by g's, as one product
// with GELU applied to each pool chunk's rows: l and g keep what their own
// Forwards keep, so a Backward after it sees no difference.
func (l *Linear) forwardGELU(x *tensor.Matrix, g *GELU) *tensor.Matrix {
	g.out = tensor.Ensure(g.out, x.Rows, l.W.Value.Cols)
	g.input, g.kept = l.infer(x, g.out), false
	return g.out
}

// infer is an inference Forward that also stores gelu of its output into
// act unless act is nil. It reads W from the packed copy.
func (l *Linear) infer(x, act *tensor.Matrix) *tensor.Matrix {
	l.input = x
	l.out = tensor.Ensure(l.out, x.Rows, l.W.Value.Cols)
	if l.packed.Matrix() != l.W.Value || l.packedAt != l.W.version {
		l.packed.Repack(l.W.Value)
		l.packedAt = l.W.version
	}
	return tensor.MatMulAddRowPackedInto(l.out, x, &l.packed, l.B.Value, act)
}

// Backward accumulates dW = xᵀg, db = Σ_rows g and returns g Wᵀ. The product
// is taken as g @ (Wᵀ) on a transposed copy of the weights refreshed every
// call, which puts it on the same column-vectorised kernel as Forward; each
// output element is still summed in ascending-k order from +0, so for finite
// weights the bits equal the dot-product form tensor.MatMulT2Into.
func (l *Linear) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	l.BackwardParams(gradOut)
	w := l.W.Value
	tensor.TransposeInto(l.wT, w) // into dW's storage, dead since BackwardParams added it to W.Grad
	l.gin = tensor.Ensure(l.gin, gradOut.Rows, w.Rows)
	return tensor.MatMulInto(l.gin, gradOut, l.wT)
}

// BackwardParams is Backward without the input gradient: it accumulates dW
// and db exactly as Backward does and skips g Wᵀ. For the first layer of a
// network, whose input gradient nobody reads.
func (l *Linear) BackwardParams(gradOut *tensor.Matrix) {
	w := l.W.Value
	if dW := tensor.Ensure(l.dW, w.Rows, w.Cols); dW != l.dW {
		// Wᵀ has as many elements as dW, and dW is dead once it has been
		// added into W.Grad: Backward's transposed copy borrows dW's
		// storage under its own shape, so it costs the layer no memory.
		l.dW, l.wT = dW, tensor.FromSlice(w.Cols, w.Rows, dW.Data)
	}
	tensor.MatMulT1Into(l.dW, l.input, gradOut)
	wGrad := l.W.EnsureGrad()
	tensor.AddInto(wGrad, wGrad, l.dW)
	// Two-phase bias reduction: column sums land in a scratch vector first
	// and are added to the grad in one pass, preserving the FP accumulation
	// order of the old ColSums-then-add code across repeated Backwards.
	l.bsums = tensor.EnsureVec(l.bsums, gradOut.Cols)
	gradOut.ColSumsInto(l.bsums)
	bGrad := l.B.EnsureGrad().Data
	for j, v := range l.bsums {
		bGrad[j] += v
	}
}

// ReleaseTraining drops the cached input, every workspace and the packed
// weights.
func (l *Linear) ReleaseTraining() { *l = Linear{W: l.W, B: l.B} }

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
