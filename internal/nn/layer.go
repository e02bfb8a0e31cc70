// Package nn is a minimal neural-network substrate with hand-derived
// backpropagation, built on internal/tensor. It provides the layers, losses
// and optimisers needed by the autoencoders, diffusion backbones and GAN
// baselines in this repository.
//
// Layers are stateful: Forward caches whatever Backward needs, so each
// Forward call must be paired with at most one Backward call before the next
// Forward. Parameter gradients accumulate across Backward calls until the
// optimiser zeroes them; this enables multi-head losses that share trunks.
//
// Layers also own persistent workspaces: Forward and Backward return
// buffers that are reused verbatim on the next call with the same batch
// shape, so in steady state a training step performs no heap allocation.
// The corollary is that a returned matrix is only valid until the layer's
// next Forward/Backward — callers that need a result to survive a later
// call through the same layer must Clone it. A shape change transparently
// falls back to a fresh allocation (the cold-start path).
//
// None of that outlives the phase that trains: constructors allocate values
// only, gradients (Param.EnsureGrad), Adam's moments and every workspace
// appear when a step first writes them, and ReleaseTraining — on a layer, a
// Sequential, the backbone, the optimiser — drops them again, leaving what
// a checkpoint stores.
package nn

import "silofuse/internal/tensor"

// Param is a trainable parameter with its accumulated gradient. The gradient
// is training state: nil until the first Backward through the parameter's
// layer (EnsureGrad), and nil again once the optimiser's ReleaseTraining has
// run, so a model that is not training holds its values and nothing else.
//
// Every write to Value's elements after construction goes through Changed,
// which is what tells a layer that keeps a packed copy of the weights for
// inference (Linear) to rebuild it: the optimisers' steps, EMA's Fold and a
// checkpoint load call it.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix

	version uint64 // counts Changed calls

	// gradZero says Grad holds +0 in every element and has not been handed
	// out for writing since: Adam's sweep and ZeroGrads leave it so, and
	// EnsureGrad, which every writer of Grad goes through, ends it.
	gradZero bool

	// pending says a layer's BackwardInput has run and its TakeGrads, which
	// writes this gradient, has not: an optimiser step now would read a
	// gradient that is missing a contribution, and is refused.
	pending bool
}

// Changed records that Value's elements have been written.
func (p *Param) Changed() { p.version++ }

// NewParam wraps value as a parameter; its gradient is allocated on first use.
func NewParam(name string, value *tensor.Matrix) *Param {
	return &Param{Name: name, Value: value}
}

// EnsureGrad returns the gradient every Backward accumulates into and every
// optimiser step reads, allocating it zeroed if nothing has written it yet.
// Every write to Grad's elements goes through it.
func (p *Param) EnsureGrad() *tensor.Matrix {
	if p.Grad == nil {
		p.Grad = tensor.New(p.Value.Rows, p.Value.Cols)
	}
	p.gradZero = false
	return p.Grad
}

// accumGrad is EnsureGrad for a Backward that adds one contribution, and
// reports whether the gradient is known to be all +0: freshly allocated, or
// cleared by the optimiser or ZeroGrads and untouched since. The Backward
// may then store its contribution in place of adding it, with the same bits:
// +0 + x is x for every x a product or column sum yields, as their chains
// start at +0 and so never end at -0.
func (p *Param) accumGrad() (g *tensor.Matrix, zero bool) {
	zero = p.Grad == nil || p.gradZero
	return p.EnsureGrad(), zero
}

// Layer is one differentiable module.
type Layer interface {
	// Forward computes the layer output for x. train toggles behaviour of
	// layers like Dropout.
	Forward(x *tensor.Matrix, train bool) *tensor.Matrix
	// Backward consumes dL/d(output) and returns dL/d(input), accumulating
	// dL/d(params) into the layer's Param.Grad fields.
	Backward(gradOut *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
}

// Sequential chains layers; the output of layer i feeds layer i+1.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward applies every layer in order. A Linear followed by a GELU, and in
// training by a Dropout too, runs as one product with the others as its
// epilogue, leaving every layer what its own Forward would have left.
func (s *Sequential) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	for i := 0; i < len(s.Layers); i++ {
		if i+1 < len(s.Layers) {
			l, linear := s.Layers[i].(*Linear)
			g, gelu := s.Layers[i+1].(*GELU)
			if linear && gelu {
				d := s.trainingDropout(i+2, train)
				x = l.forwardGELU(x, g, train, d)
				if i++; d != nil {
					i++
				}
				continue
			}
		}
		x = s.Layers[i].Forward(x, train)
	}
	return x
}

// trainingDropout returns layer i if it is a Dropout that drops something in
// a training Forward, and nil otherwise.
func (s *Sequential) trainingDropout(i int, train bool) *Dropout {
	if !train || i >= len(s.Layers) {
		return nil
	}
	if d, ok := s.Layers[i].(*Dropout); ok && d.P > 0 {
		return d
	}
	return nil
}

// splitBackwarder is a layer whose Backward is two passes that may run apart:
// BackwardInput returns dL/d(input) and leaves the parameter gradients
// pending, and TakeGrads accumulates them, reading only what the layer kept
// from its Forward and the gradient it was given.
type splitBackwarder interface {
	BackwardInput(gradOut *tensor.Matrix) *tensor.Matrix
	TakeGrads()
}

// Backward propagates the gradient through all layers in reverse order. A
// Dropout that dropped a GELU's output in training runs its Backward and the
// GELU's as one pass. It is BackwardInput followed by TakeGrads, with each
// layer's parameter gradients taken as soon as its input gradient is: the
// same products on the same operands, so the same bits.
func (s *Sequential) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	return s.backwardDownTo(0, gradOut, false)
}

// BackwardInput is Backward's first pass: it returns dL/d(input) and leaves
// the parameter gradients of every layer that can split its Backward (a
// *Linear) pending until TakeGrads. The pending gradients read the layers'
// Forward caches and the gradients passed between them, so TakeGrads must
// run before the next Forward and before the optimiser steps.
func (s *Sequential) BackwardInput(gradOut *tensor.Matrix) *tensor.Matrix {
	return s.backwardDownTo(0, gradOut, true)
}

// TakeGrads accumulates the parameter gradients BackwardInput left pending.
func (s *Sequential) TakeGrads() {
	for _, l := range s.Layers {
		if l, ok := l.(splitBackwarder); ok {
			l.TakeGrads()
		}
	}
}

// backwardDownTo runs the Backwards of layers len-1 down to lo and returns
// the gradient of layer lo's input; with pend, each layer that can leaves its
// parameter gradients pending.
func (s *Sequential) backwardDownTo(lo int, gradOut *tensor.Matrix, pend bool) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= lo; i-- {
		if i > lo {
			d, _ := s.Layers[i].(*Dropout)
			g, _ := s.Layers[i-1].(*GELU)
			if d != nil && d.mask != nil && g != nil && g.kept {
				gradOut = g.backwardDropped(gradOut, d)
				i--
				continue
			}
		}
		if l, ok := s.Layers[i].(splitBackwarder); ok && pend {
			gradOut = l.BackwardInput(gradOut)
			continue
		}
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// paramsBackwarder is a layer that can accumulate its parameter gradients
// without computing its input gradient.
type paramsBackwarder interface {
	BackwardParams(gradOut *tensor.Matrix)
}

// BackwardParams is Backward for callers that do not read dL/d(input): a
// first layer that has a params-only backward (a *Linear, or a layer whose
// input is data and has no gradient at all) runs that. Parameter gradients
// accumulate exactly as in Backward.
func (s *Sequential) BackwardParams(gradOut *tensor.Matrix) {
	if len(s.Layers) == 0 {
		return
	}
	gradOut = s.backwardDownTo(1, gradOut, false)
	if first, ok := s.Layers[0].(paramsBackwarder); ok {
		first.BackwardParams(gradOut)
		return
	}
	s.Layers[0].Backward(gradOut)
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears the gradient of every parameter that has one.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		if p.Grad != nil {
			p.Grad.Zero()
			p.gradZero = true
		}
	}
}

// releaser is a layer that holds more than its parameters: workspaces shaped
// by the last batch, inputs cached for Backward.
type releaser interface {
	ReleaseTraining()
}

// ReleaseTraining drops every layer's workspaces, leaving the parameters: the
// next Forward sizes them again for whatever batch it is given.
func (s *Sequential) ReleaseTraining() {
	for _, l := range s.Layers {
		if r, ok := l.(releaser); ok {
			r.ReleaseTraining()
		}
	}
}
