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
	// unchanged; see the layer contract in layer.go. dW is only sized by a
	// Backward that adds onto a gradient already holding something.
	out, dW, gin *tensor.Matrix
	bsums        []float64

	// packed is W in the tile's panel layout as of W's version packedAt, and
	// packedT is Wᵀ, packed from W, as of packedTAt: weights that have not
	// changed since are not packed again. gradP is a Backward's gradOut,
	// packed once for all the chunks of the weight gradient.
	packed, packedT, gradP tensor.Packed
	packedAt, packedTAt    uint64
}

// NewLinear creates a Linear layer with Kaiming-uniform initialised weights.
func NewLinear(rng *rand.Rand, in, out int) *Linear {
	bound := math.Sqrt(1.0 / float64(in))
	w := tensor.New(in, out).RandUniform(rng, -bound, bound)
	b := tensor.New(1, out).RandUniform(rng, -bound, bound)
	return &Linear{W: NewParam("linear.W", w), B: NewParam("linear.b", b)}
}

// Forward computes xW + b, reading W from the packed copy, which is rebuilt
// only when W has changed since it was made: once per step in training, once
// per weight update at inference. The bits are the same as packing W per
// call.
func (l *Linear) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	return l.forward(x, tensor.Epilogue{})
}

// forwardGELU is a Forward of l followed by g's and, unless d is nil, a
// training Forward of d's, as one product: each pool chunk applies GELU and
// the dropout mask to its own rows while they are cache-hot. Every layer
// keeps what its own Forward keeps, so a Backward after it sees no
// difference.
func (l *Linear) forwardGELU(x *tensor.Matrix, g *GELU, train bool, d *Dropout) *tensor.Matrix {
	rows, n := x.Rows, l.W.Value.Cols
	g.out = tensor.Ensure(g.out, rows, n)
	ep := tensor.Epilogue{Act: g.out}
	if train {
		g.gin = tensor.Ensure(g.gin, rows, n)
		ep.Keep = g.gin
	}
	out := g.out
	if d != nil {
		ep.Then, out = d.applier(g.out)
	}
	g.input, g.kept = l.forward(x, ep), train
	return out
}

// forward is a Forward with the epilogue ep.
func (l *Linear) forward(x *tensor.Matrix, ep tensor.Epilogue) *tensor.Matrix {
	l.input = x
	l.out = tensor.Ensure(l.out, x.Rows, l.W.Value.Cols)
	l.refresh()
	return tensor.MatMulAddRowPackedInto(l.out, x, &l.packed, l.B.Value, ep)
}

// Backward accumulates dW = xᵀg, db = Σ_rows g and returns g Wᵀ. The product
// is taken as g @ (Wᵀ), with Wᵀ packed from W once per weight version, which
// puts it on the same column-vectorised kernel as Forward; each output
// element is still summed in ascending-k order from +0, so for finite
// weights the bits equal the dot-product form tensor.MatMulT2Into.
func (l *Linear) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	l.gradP.Repack(gradOut)
	return l.backwardFrom(&l.gradP)
}

// backwardFrom is Backward for the gradOut g stands for.
func (l *Linear) backwardFrom(g *tensor.Packed) *tensor.Matrix {
	l.paramsFrom(g)
	gradOut, w := g.Matrix(), l.W.Value
	l.refreshT()
	l.gin = tensor.Ensure(l.gin, gradOut.Rows, w.Rows)
	return tensor.MatMulPackedInto(l.gin, gradOut, &l.packedT)
}

// refresh makes packed stand for W as it is now, unless it already does;
// refreshT does the same for packedT.
func (l *Linear) refresh() {
	if l.packed.Matrix() != l.W.Value || l.packedAt != l.W.version {
		l.packed.Repack(l.W.Value)
		l.packedAt = l.W.version
	}
}

func (l *Linear) refreshT() {
	if l.packedT.Matrix() != l.W.Value || l.packedTAt != l.W.version {
		l.packedT.RepackT(l.W.Value)
		l.packedTAt = l.W.version
	}
}

// prepack packs W, and Wᵀ if withT, as a training step on a batch of rows
// rows will read them, ahead of the step.
func (l *Linear) prepack(rows int, withT bool) {
	l.refresh()
	l.packed.Pack(rows)
	if withT {
		l.refreshT()
		l.packedT.Pack(rows)
	}
}

// BackwardParams is Backward without the input gradient: it accumulates dW
// and db exactly as Backward does and skips g Wᵀ. For the first layer of a
// network, whose input gradient nobody reads.
func (l *Linear) BackwardParams(gradOut *tensor.Matrix) {
	l.gradP.Repack(gradOut)
	l.paramsFrom(&l.gradP)
}

// paramsFrom is BackwardParams for the gradOut g stands for, which another
// layer fed the same gradient may have packed already.
//
// A gradient known to be all +0 (the first Backward after a step) takes dW
// and db in place, and one that already holds a contribution (a second
// Backward before the step, as in a GAN discriminator's real-then-fake pass)
// has them added from a workspace: the bits of adding every time.
func (l *Linear) paramsFrom(g *tensor.Packed) {
	w := l.W.Value
	wGrad, zero := l.W.accumGrad()
	dW := wGrad
	if !zero {
		l.dW = tensor.Ensure(l.dW, w.Rows, w.Cols)
		dW = l.dW
	}
	bGrad, bZero := l.B.accumGrad()
	sums := bGrad.Data
	if !bZero {
		l.bsums = tensor.EnsureVec(l.bsums, w.Cols)
		sums = l.bsums
	}
	tensor.MatMulT1PackedInto(dW, l.input, g, sums)
	if !zero {
		tensor.AddInto(wGrad, wGrad, dW)
	}
	if !bZero {
		// Two-phase bias reduction: column sums land in a scratch vector
		// first and are added to the grad in one pass, preserving the FP
		// accumulation order of the old ColSums-then-add code across
		// repeated Backwards.
		for j, v := range l.bsums {
			bGrad.Data[j] += v
		}
	}
}

// ReleaseTraining drops the cached input, every workspace and the packed
// weights.
func (l *Linear) ReleaseTraining() { *l = Linear{W: l.W, B: l.B} }

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }
