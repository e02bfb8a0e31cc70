package nn

import (
	"math"

	"silofuse/internal/tensor"
)

const invSqrt2 = 0.7071067811865476 // 1/sqrt(2)

// Every activation keeps two persistent workspaces (forward output,
// backward grad) reused across steps while the batch shape is unchanged.
// The elementwise expressions are byte-for-byte the ones the old
// Map/Clone-based paths evaluated, so outputs stay bit-identical.

// GELU is the exact Gaussian error linear unit used by the paper's
// autoencoders and diffusion backbones: gelu(x) = x·Φ(x).
type GELU struct {
	input    *tensor.Matrix
	out, gin *tensor.Matrix

	// kept says gin holds 1 + erf(x/√2) of the current input: a training
	// Forward parks it there, in the workspace that is idle until Backward
	// overwrites it with the gradient, so keeping it costs no memory.
	kept bool
}

// Forward applies gelu elementwise, on the tensor worker pool once the
// batch is large enough. A training Forward also keeps the erf term for
// Backward; an evaluation Forward allocates and stores nothing for it.
func (g *GELU) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	g.input, g.kept = x, train
	g.out = tensor.Ensure(g.out, x.Rows, x.Cols)
	if !train {
		return tensor.GELUInto(g.out, x)
	}
	g.gin = tensor.Ensure(g.gin, x.Rows, x.Cols)
	return tensor.GELUKeepInto(g.out, g.gin, x)
}

// Backward multiplies by gelu'(x) = Φ(x) + x·φ(x), with Φ from the erf the
// Forward kept when there is one and recomputed otherwise — the same bits.
func (g *GELU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	if g.kept {
		g.kept = false // the gradient replaces the erf, element by element
		return tensor.GELUGradKeptInto(g.gin, g.input, g.gin, gradOut)
	}
	g.gin = tensor.Ensure(g.gin, gradOut.Rows, gradOut.Cols)
	return tensor.GELUGradInto(g.gin, g.input, gradOut)
}

// Params returns nil; GELU has no parameters.
func (g *GELU) Params() []*Param { return nil }

// ReleaseTraining drops the cached input and both workspaces.
func (g *GELU) ReleaseTraining() { *g = GELU{} }

// LeakyReLU with negative slope Alpha, used by the GAN baselines.
type LeakyReLU struct {
	Alpha    float64
	input    *tensor.Matrix
	out, gin *tensor.Matrix
}

// NewLeakyReLU creates a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies max(x, αx) elementwise.
func (l *LeakyReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	l.input = x
	l.out = tensor.Ensure(l.out, x.Rows, x.Cols)
	a := l.Alpha
	for i, v := range x.Data {
		if v >= 0 {
			l.out.Data[i] = v
		} else {
			l.out.Data[i] = a * v
		}
	}
	return l.out
}

// Backward multiplies by 1 or α depending on the input sign.
func (l *LeakyReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	l.gin = tensor.Ensure(l.gin, gradOut.Rows, gradOut.Cols)
	for i, v := range l.input.Data {
		if v < 0 {
			l.gin.Data[i] = gradOut.Data[i] * l.Alpha
		} else {
			l.gin.Data[i] = gradOut.Data[i]
		}
	}
	return l.gin
}

// Params returns nil; LeakyReLU has no parameters.
func (l *LeakyReLU) Params() []*Param { return nil }

// ReLU rectified linear unit.
type ReLU struct {
	input    *tensor.Matrix
	out, gin *tensor.Matrix
}

// Forward applies max(0, x) elementwise.
func (r *ReLU) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	r.input = x
	r.out = tensor.Ensure(r.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		r.out.Data[i] = math.Max(0, v)
	}
	return r.out
}

// Backward zeroes gradients where the input was negative.
func (r *ReLU) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	r.gin = tensor.Ensure(r.gin, gradOut.Rows, gradOut.Cols)
	for i, v := range r.input.Data {
		if v <= 0 {
			r.gin.Data[i] = 0
		} else {
			r.gin.Data[i] = gradOut.Data[i]
		}
	}
	return r.gin
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Tanh hyperbolic tangent activation.
type Tanh struct {
	output *tensor.Matrix
	gin    *tensor.Matrix
}

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	t.output = tensor.Ensure(t.output, x.Rows, x.Cols)
	for i, v := range x.Data {
		t.output.Data[i] = math.Tanh(v)
	}
	return t.output
}

// Backward multiplies by 1 - tanh(x)^2.
func (t *Tanh) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	t.gin = tensor.Ensure(t.gin, gradOut.Rows, gradOut.Cols)
	for i, y := range t.output.Data {
		t.gin.Data[i] = gradOut.Data[i] * (1 - y*y)
	}
	return t.gin
}

// Params returns nil; Tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }

// Sigmoid logistic activation.
type Sigmoid struct {
	output *tensor.Matrix
	gin    *tensor.Matrix
}

// Forward applies 1/(1+e^-x) elementwise.
func (s *Sigmoid) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	s.output = tensor.Ensure(s.output, x.Rows, x.Cols)
	for i, v := range x.Data {
		s.output.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return s.output
}

// Backward multiplies by σ(x)(1-σ(x)).
func (s *Sigmoid) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	s.gin = tensor.Ensure(s.gin, gradOut.Rows, gradOut.Cols)
	for i, y := range s.output.Data {
		s.gin.Data[i] = gradOut.Data[i] * (y * (1 - y))
	}
	return s.gin
}

// Params returns nil; Sigmoid has no parameters.
func (s *Sigmoid) Params() []*Param { return nil }
