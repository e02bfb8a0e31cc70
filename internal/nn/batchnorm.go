package nn

import (
	"math"

	"silofuse/internal/tensor"
)

// BatchNorm normalises each feature over the batch dimension with learned
// scale/shift, keeping running statistics for inference — the batch-norm
// variant CTGAN-style generators commonly use as an alternative to layer
// norm.
type BatchNorm struct {
	Gamma, Beta *Param
	Eps         float64
	Momentum    float64 // running-stat update rate

	runMean, runVar []float64

	// caches for Backward. invStd stays nil after an inference-mode
	// Forward (that is the mode signal Backward keys on); the reusable
	// buffer lives in invStdBuf.
	xhat   *tensor.Matrix
	invStd []float64

	// persistent workspaces
	invStdBuf, meanBuf, vrBuf, sumD, sumDXh []float64
	out, gin                                *tensor.Matrix
}

// NewBatchNorm creates a BatchNorm over dim features.
func NewBatchNorm(dim int) *BatchNorm {
	bn := &BatchNorm{
		Gamma:    NewParam("bn.gamma", tensor.New(1, dim).Fill(1)),
		Beta:     NewParam("bn.beta", tensor.New(1, dim)),
		Eps:      1e-5,
		Momentum: 0.1,
		runMean:  make([]float64, dim),
		runVar:   make([]float64, dim),
	}
	for i := range bn.runVar {
		bn.runVar[i] = 1
	}
	return bn
}

// Forward normalises per feature using batch statistics when train is true
// and running statistics otherwise.
func (b *BatchNorm) Forward(x *tensor.Matrix, train bool) *tensor.Matrix {
	d := x.Cols
	b.out = tensor.Ensure(b.out, x.Rows, d)
	out := b.out
	g := b.Gamma.Value.Data
	bt := b.Beta.Value.Data

	if !train || x.Rows < 2 {
		// Running statistics are constants here, but the normalised input is
		// still cached so Backward can accumulate gamma/beta gradients.
		b.xhat = tensor.Ensure(b.xhat, x.Rows, d)
		b.invStd = nil
		for i := 0; i < x.Rows; i++ {
			src, dst := x.Row(i), out.Row(i)
			xh := b.xhat.Row(i)
			for j := range dst {
				xh[j] = (src[j] - b.runMean[j]) / math.Sqrt(b.runVar[j]+b.Eps)
				dst[j] = xh[j]*g[j] + bt[j]
			}
		}
		return out
	}

	n := float64(x.Rows)
	b.meanBuf = tensor.EnsureVec(b.meanBuf, d)
	b.vrBuf = tensor.EnsureVec(b.vrBuf, d)
	mean, vr := b.meanBuf, b.vrBuf
	clear(mean)
	clear(vr)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= n
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			dlt := v - mean[j]
			vr[j] += dlt * dlt
		}
	}
	b.invStdBuf = tensor.EnsureVec(b.invStdBuf, d)
	b.invStd = b.invStdBuf
	for j := range vr {
		vr[j] /= n
		b.invStd[j] = 1 / math.Sqrt(vr[j]+b.Eps)
		b.runMean[j] = (1-b.Momentum)*b.runMean[j] + b.Momentum*mean[j]
		b.runVar[j] = (1-b.Momentum)*b.runVar[j] + b.Momentum*vr[j]
	}
	b.xhat = tensor.Ensure(b.xhat, x.Rows, d)
	for i := 0; i < x.Rows; i++ {
		src := x.Row(i)
		xh := b.xhat.Row(i)
		dst := out.Row(i)
		for j := range dst {
			xh[j] = (src[j] - mean[j]) * b.invStd[j]
			dst[j] = xh[j]*g[j] + bt[j]
		}
	}
	return out
}

// Backward implements the batch-norm gradient (training mode only; after an
// inference-mode Forward it degrades to the affine gradient).
func (b *BatchNorm) Backward(gradOut *tensor.Matrix) *tensor.Matrix {
	d := gradOut.Cols
	g := b.Gamma.Value.Data
	b.gin = tensor.Ensure(b.gin, gradOut.Rows, d)
	out := b.gin
	gGrad, bGrad := b.Gamma.EnsureGrad().Data, b.Beta.EnsureGrad().Data

	if b.invStd == nil {
		// Inference-mode forward: running stats are constants, so the input
		// gradient is a per-feature rescale; gamma/beta still learn.
		for i := 0; i < gradOut.Rows; i++ {
			src, dst := gradOut.Row(i), out.Row(i)
			xh := b.xhat.Row(i)
			for j := range dst {
				gGrad[j] += src[j] * xh[j]
				bGrad[j] += src[j]
				dst[j] = src[j] * g[j] / math.Sqrt(b.runVar[j]+b.Eps)
			}
		}
		return out
	}

	n := float64(gradOut.Rows)
	b.sumD = tensor.EnsureVec(b.sumD, d)
	b.sumDXh = tensor.EnsureVec(b.sumDXh, d)
	sumD, sumDXh := b.sumD, b.sumDXh
	clear(sumD)
	clear(sumDXh)
	for i := 0; i < gradOut.Rows; i++ {
		grow := gradOut.Row(i)
		xh := b.xhat.Row(i)
		for j, gv := range grow {
			gGrad[j] += gv * xh[j]
			bGrad[j] += gv
			dxh := gv * g[j]
			sumD[j] += dxh
			sumDXh[j] += dxh * xh[j]
		}
	}
	for i := 0; i < gradOut.Rows; i++ {
		grow := gradOut.Row(i)
		xh := b.xhat.Row(i)
		dst := out.Row(i)
		for j, gv := range grow {
			dxh := gv * g[j]
			dst[j] = (dxh - sumD[j]/n - xh[j]*sumDXh[j]/n) * b.invStd[j]
		}
	}
	return out
}

// Params returns gamma and beta.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }
