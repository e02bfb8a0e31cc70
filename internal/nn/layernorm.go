package nn

import (
	"math"

	"silofuse/internal/tensor"
)

// LayerNorm normalises each row to zero mean / unit variance and applies a
// learned affine transform, as used in the GAN baselines ("layer norm").
type LayerNorm struct {
	Gamma, Beta *Param
	Eps         float64

	xhat   *tensor.Matrix // cached normalised input
	invStd []float64      // cached per-row 1/sqrt(var+eps)

	out, gin *tensor.Matrix // persistent workspaces
}

// NewLayerNorm creates a LayerNorm over feature dimension dim.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{
		Gamma: NewParam("ln.gamma", tensor.New(1, dim).Fill(1)),
		Beta:  NewParam("ln.beta", tensor.New(1, dim)),
		Eps:   1e-5,
	}
}

// Forward normalises each row and applies gamma/beta.
func (l *LayerNorm) Forward(x *tensor.Matrix, _ bool) *tensor.Matrix {
	n := float64(x.Cols)
	l.xhat = tensor.Ensure(l.xhat, x.Rows, x.Cols)
	l.invStd = tensor.EnsureVec(l.invStd, x.Rows)
	l.out = tensor.Ensure(l.out, x.Rows, x.Cols)
	out := l.out
	g := l.Gamma.Value.Data
	b := l.Beta.Value.Data
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= n
		vr := 0.0
		for _, v := range row {
			d := v - mean
			vr += d * d
		}
		vr /= n
		is := 1 / math.Sqrt(vr+l.Eps)
		l.invStd[i] = is
		xh := l.xhat.Row(i)
		orow := out.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * is
			orow[j] = xh[j]*g[j] + b[j]
		}
	}
	return out
}

// Backward implements the standard layer-norm gradient.
func (l *LayerNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	n := float64(gradOut.Cols)
	l.gin = tensor.Ensure(l.gin, gradOut.Rows, gradOut.Cols)
	out := l.gin
	g := l.Gamma.Value.Data
	gGrad, bGrad := l.Gamma.EnsureGrad().Data, l.Beta.EnsureGrad().Data
	for i := 0; i < gradOut.Rows; i++ {
		grow := gradOut.Row(i)
		xh := l.xhat.Row(i)
		// Accumulate parameter gradients.
		for j, gv := range grow {
			gGrad[j] += gv * xh[j]
			bGrad[j] += gv
		}
		// dL/dxhat = gradOut * gamma
		sumDxh := 0.0
		sumDxhXh := 0.0
		for j, gv := range grow {
			d := gv * g[j]
			sumDxh += d
			sumDxhXh += d * xh[j]
		}
		is := l.invStd[i]
		orow := out.Row(i)
		for j, gv := range grow {
			d := gv * g[j]
			orow[j] = (d - sumDxh/n - xh[j]*sumDxhXh/n) * is
		}
	}
	return out
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }
