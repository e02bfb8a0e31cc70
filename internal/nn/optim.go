package nn

import (
	"math"

	"silofuse/internal/tensor"
)

// Adam implements the Adam optimiser (Kingma & Ba) with bias correction.
// The paper trains every model with Adam at lr=1e-3. The moment estimates are
// training state: allocated by the first Step and dropped by ReleaseTraining,
// so an optimiser that is not stepping holds nothing.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	// ClipNorm, when > 0, rescales the global gradient norm to at most this
	// value before the update (gradient clipping for GAN stability).
	ClipNorm float64

	params []*Param
	m, v   []*tensor.Matrix
	t      int
	sweep  adamSweep
}

// NewAdam creates an Adam optimiser with standard defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(params []*Param, lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
}

// ReleaseTraining drops the moments, the step count and every parameter's
// gradient. What is left is what NewAdam returned, so a later Step starts a
// fresh run — as it does on a model loaded from a checkpoint.
func (a *Adam) ReleaseTraining() {
	a.m, a.v, a.t, a.sweep = nil, nil, 0, adamSweep{}
	for _, p := range a.params {
		p.Grad = nil
	}
}

// adamSweep is the update of every parameter as one tensor.RangeKernel over
// their elements laid end to end: every element depends on its own weight,
// gradient and moments only, so the whole step is one dispatch on the worker
// pool (or inline when it is small), with the same bits however it is cut.
type adamSweep struct {
	a    *Adam
	ends []int // ends[i] is one past parameter i's last element
	c    tensor.AdamCoef
}

// RunRange updates elements [lo, hi) and clears their gradients, which
// nothing reads between the update and the zeroing Step promises.
func (s *adamSweep) RunRange(lo, hi int) {
	start := 0
	for i, end := range s.ends {
		if lo < end && start < hi {
			p, a, b := s.a.params[i], max(lo, start)-start, min(hi, end)-start
			tensor.AdamUpdate(p.Value.Data[a:b], p.Grad.Data[a:b], s.a.m[i].Data[a:b], s.a.v[i].Data[a:b], &s.c)
		}
		start = end
	}
}

// Step applies one Adam update and zeroes gradients.
func (a *Adam) Step() {
	a.t++
	if a.m == nil { // the zero moment estimates a run starts from
		a.m = make([]*tensor.Matrix, len(a.params))
		a.v = make([]*tensor.Matrix, len(a.params))
		a.sweep.ends = make([]int, len(a.params))
		total := 0
		for i, p := range a.params {
			a.m[i] = tensor.New(p.Value.Rows, p.Value.Cols)
			a.v[i] = tensor.New(p.Value.Rows, p.Value.Cols)
			total += len(p.Value.Data)
			a.sweep.ends[i] = total
		}
	}
	if a.ClipNorm > 0 {
		total := 0.0
		for _, p := range a.params {
			for _, g := range p.EnsureGrad().Data {
				total += g * g
			}
		}
		norm := math.Sqrt(total)
		if norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for _, p := range a.params {
				p.Grad.Scale(scale)
			}
		}
	}
	s := &a.sweep
	s.a = a
	s.c.LR, s.c.Beta1, s.c.Beta2, s.c.Eps = a.LR, a.Beta1, a.Beta2, a.Eps
	s.c.BC1 = 1 - math.Pow(a.Beta1, float64(a.t))
	s.c.BC2 = 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range a.params {
		p.EnsureGrad()
	}
	if n := len(s.ends); n > 0 {
		tensor.ParallelRange(s, s.ends[n-1], s.ends[n-1])
	}
	for _, p := range a.params {
		p.Changed()
		p.gradZero = true // the sweep stored +0 over every gradient
	}
}

// ZeroGrads clears all parameter gradients.
func (a *Adam) ZeroGrads() { ZeroGrads(a.params) }
