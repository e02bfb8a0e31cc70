package nn

import (
	"math/rand"

	"silofuse/internal/tensor"
)

// DiffusionMLP is the timestep-conditioned denoising backbone used by every
// DDPM in this repository: an input projection, a stack of
// Linear→GELU→Dropout blocks (the paper's "eight layers with GELU activation
// and a dropout factor of 0.01"), and an output projection back to the data
// dimension. Timestep conditioning enters as a learned projection of the
// sinusoidal embedding added to the post-input-projection activations.
type DiffusionMLP struct {
	In, Hidden, Out, TimeDim int

	inProj   *Linear
	timeProj *Linear
	blocks   *Sequential
	outProj  *Linear

	tfeat  *tensor.Matrix // cached sinusoidal features for Backward
	tfeat1 *tensor.Matrix // the one embedding row of a uniform-timestep eval batch

	// embed caches one sinusoidal row per timestep (grown on demand, or
	// all at once via WarmTimesteps), so a steady-state Forward only
	// copies precomputed rows. hsum is the add-node workspace.
	embed [][]float64
	hsum  *tensor.Matrix
	add   addNode // the add node, run as the time projection's epilogue

	// drawer draws the blocks' dropout masks, in layer order, on the pool
	// while a training Forward runs the products ahead of each.
	drawer maskDrawer
}

// maskDrawer is the one serial job of a training Forward: every Dropout's
// mask from the rng they share, one after another, each handed over as soon
// as it is drawn. The products run meanwhile and nothing else reads that rng
// until the last mask is drawn, so the stream is the one drawing each mask in
// its own Forward would take.
type maskDrawer struct{ drops []*Dropout }

func (m *maskDrawer) RunRange(_, _ int) {
	for _, d := range m.drops {
		d.drawMask()
		d.drawn <- struct{}{}
	}
}

// NewDiffusionMLP builds a backbone with depth hidden blocks. timeDim is the
// sinusoidal embedding width (must be even).
func NewDiffusionMLP(rng *rand.Rand, in, hidden, out, depth, timeDim int, dropout float64) *DiffusionMLP {
	var layers []Layer
	var drops []*Dropout
	for i := 0; i < depth; i++ {
		layers = append(layers, NewLinear(rng, hidden, hidden), &GELU{})
		if dropout > 0 {
			drops = append(drops, NewDropout(rng, dropout))
			layers = append(layers, drops[len(drops)-1])
		}
	}
	return &DiffusionMLP{
		In: in, Hidden: hidden, Out: out, TimeDim: timeDim,
		inProj:   NewLinear(rng, in, hidden),
		timeProj: NewLinear(rng, timeDim, hidden),
		blocks:   NewSequential(layers...),
		outProj:  NewLinear(rng, hidden, out),
		drawer:   maskDrawer{drops: drops},
	}
}

// embedRow returns the cached sinusoidal embedding for timestep t,
// computing and caching it on first use.
func (d *DiffusionMLP) embedRow(t int) []float64 {
	if t >= len(d.embed) {
		grown := make([][]float64, t+1)
		copy(grown, d.embed)
		d.embed = grown
	}
	if d.embed[t] == nil {
		row := make([]float64, d.TimeDim)
		SinusoidalEmbedding(t, row)
		d.embed[t] = row
	}
	return d.embed[t]
}

// WarmTimesteps precomputes the sinusoidal embedding table for timesteps
// 0..maxT so the first training step is already allocation-free.
func (d *DiffusionMLP) WarmTimesteps(maxT int) {
	for t := 0; t <= maxT; t++ {
		d.embedRow(t)
	}
}

// Forward predicts the noise for inputs x at per-row timesteps ts. A training
// Forward hands the dropout masks to the drawer first.
func (d *DiffusionMLP) Forward(x *tensor.Matrix, ts []int, train bool) *tensor.Matrix {
	d.outProj.refusePending() // before the drawer starts; BackwardInput pends every layer
	if train && len(d.drawer.drops) > 0 {
		for _, dr := range d.drawer.drops {
			dr.prepare(x.Rows, d.Hidden)
		}
		tensor.Beside(&d.drawer)
	}
	h := d.inProj.Forward(x, train)
	if !train && uniformTimestep(ts) {
		// A denoising step: every row carries the same t, so its embedding
		// is projected once and that row added to every row of h — per
		// element the same h + te the stacked form below computes, without
		// len(ts) copies of one row and a len(ts)-row product. Nothing here
		// is kept for Backward, which only follows a training Forward.
		d.tfeat1 = tensor.Ensure(d.tfeat1, 1, d.TimeDim)
		copy(d.tfeat1.Data, d.embedRow(ts[0]))
		h.AddRowVector(d.timeProj.Forward(d.tfeat1, false).Data)
	} else {
		d.tfeat = tensor.Ensure(d.tfeat, len(ts), d.TimeDim)
		for i, t := range ts {
			copy(d.tfeat.Row(i), d.embedRow(t))
		}
		d.hsum = tensor.Ensure(d.hsum, h.Rows, h.Cols)
		d.add = addNode{h: h, sum: d.hsum, te: d.timeProj}
		d.timeProj.forward(d.tfeat, tensor.Epilogue{Then: &d.add})
		d.add = addNode{}
		h = d.hsum
	}
	h = d.blocks.Forward(h, train)
	return d.outProj.Forward(h, train)
}

// uniformTimestep reports whether ts has more than one entry and all are
// equal, as in every step of the diffusion package's denoising loop.
func uniformTimestep(ts []int) bool {
	if len(ts) < 2 {
		return false
	}
	for _, t := range ts[1:] {
		if t != ts[0] {
			return false
		}
	}
	return true
}

// Backward propagates the output gradient, accumulating parameter gradients,
// and returns dL/dx. It is BackwardInput followed by TakeGrads.
func (d *DiffusionMLP) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	gin := d.BackwardInput(gradOut)
	d.TakeGrads()
	return gin
}

// BackwardInput is Backward's first pass: it returns dL/dx and leaves every
// parameter gradient pending until TakeGrads, under the contract of
// Sequential.BackwardInput. A caller that sends dL/dx on runs the weight
// gradients while it is in flight.
func (d *DiffusionMLP) BackwardInput(gradOut *tensor.Matrix) *tensor.Matrix {
	g := d.outProj.BackwardInput(gradOut)
	g = d.blocks.BackwardInput(g)
	d.timeProj.pend(g) // nobody reads the gradient w.r.t. the sinusoidal features
	return d.inProj.BackwardInput(g)
}

// TakeGrads accumulates the parameter gradients BackwardInput left pending.
func (d *DiffusionMLP) TakeGrads() {
	d.outProj.TakeGrads()
	d.blocks.TakeGrads()
	d.takeAddGrads()
}

// BackwardParams is Backward for a caller that does not read dL/dx, as a
// DDPM trained on fixed data does not: parameter gradients accumulate exactly
// as in Backward, each layer's as soon as its input gradient is known, and
// the input projection's g·Wᵀ is skipped.
func (d *DiffusionMLP) BackwardParams(gradOut *tensor.Matrix) {
	g := d.outProj.Backward(gradOut)
	g = d.blocks.Backward(g)
	d.timeProj.pend(g)
	d.inProj.pend(g)
	d.takeAddGrads()
}

// takeAddGrads takes both projections' pending weight gradients from the add
// node's gradient, which fans out to the input and the time projection: one
// packing serves both.
func (d *DiffusionMLP) takeAddGrads() {
	d.timeProj.TakeGrads()
	if d.inProj.gradOut != nil {
		d.inProj.takeFrom(&d.timeProj.gradP)
	}
}

// Prepack packs every layer's weights as a training step on a batch of rows
// rows reads them, so that the step's products find them packed: a caller
// with serial work to do before the step, such as drawing its noise, runs
// it beside this.
func (d *DiffusionMLP) Prepack(rows int) {
	// BackwardParams reads neither projection's Wᵀ; a Backward packs the
	// input projection's when it reaches it.
	d.inProj.prepack(rows, false)
	d.timeProj.prepack(rows, false)
	for _, l := range d.blocks.Layers {
		if l, ok := l.(*Linear); ok {
			l.prepack(rows, true)
		}
	}
	d.outProj.prepack(rows, true)
}

// addNode stores h + te, te being the time projection's output, element by
// element as AddInto adds them.
type addNode struct {
	h, sum *tensor.Matrix
	te     *Linear
}

func (k *addNode) RunRange(lo, hi int) {
	sum, te := k.sum.Data[lo:hi], k.te.out.Data[lo:hi]
	for i, v := range k.h.Data[lo:hi] {
		sum[i] = v + te[i]
	}
}

// ReleaseTraining drops every layer's workspaces and the backbone's own. The
// sinusoidal table stays: it depends on nothing a step writes, and sampling
// reads it.
func (d *DiffusionMLP) ReleaseTraining() {
	d.inProj.ReleaseTraining()
	d.timeProj.ReleaseTraining()
	d.blocks.ReleaseTraining()
	d.outProj.ReleaseTraining()
	d.tfeat, d.tfeat1, d.hsum = nil, nil, nil
}

// Params returns all trainable parameters of the backbone.
func (d *DiffusionMLP) Params() []*Param {
	ps := append([]*Param{}, d.inProj.Params()...)
	ps = append(ps, d.timeProj.Params()...)
	ps = append(ps, d.blocks.Params()...)
	ps = append(ps, d.outProj.Params()...)
	return ps
}
