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
}

// NewDiffusionMLP builds a backbone with depth hidden blocks. timeDim is the
// sinusoidal embedding width (must be even).
func NewDiffusionMLP(rng *rand.Rand, in, hidden, out, depth, timeDim int, dropout float64) *DiffusionMLP {
	var layers []Layer
	for i := 0; i < depth; i++ {
		layers = append(layers, NewLinear(rng, hidden, hidden), &GELU{})
		if dropout > 0 {
			layers = append(layers, NewDropout(rng, dropout))
		}
	}
	return &DiffusionMLP{
		In: in, Hidden: hidden, Out: out, TimeDim: timeDim,
		inProj:   NewLinear(rng, in, hidden),
		timeProj: NewLinear(rng, timeDim, hidden),
		blocks:   NewSequential(layers...),
		outProj:  NewLinear(rng, hidden, out),
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

// Forward predicts the noise for inputs x at per-row timesteps ts.
func (d *DiffusionMLP) Forward(x *tensor.Matrix, ts []int, train bool) *tensor.Matrix {
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
		te := d.timeProj.Forward(d.tfeat, train)
		d.hsum = tensor.Ensure(d.hsum, h.Rows, h.Cols)
		h = tensor.AddInto(d.hsum, h, te)
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
// and returns dL/dx.
func (d *DiffusionMLP) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	g := d.outProj.Backward(gradOut)
	g = d.blocks.Backward(g)
	// The add node fans the gradient to both the input and time projections.
	d.timeProj.BackwardParams(g) // nobody reads the gradient w.r.t. the sinusoidal features
	return d.inProj.Backward(g)
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
