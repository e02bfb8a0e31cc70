package nn

import "silofuse/internal/tensor"

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
