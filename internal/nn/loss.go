package nn

import (
	"math"

	"silofuse/internal/tensor"
)

// MSELoss returns the mean-squared error between pred and target and the
// gradient dLoss/dPred. The mean is taken over all elements, matching the
// diffusion objective (2)/(5) in the paper.
func MSELoss(pred, target *tensor.Matrix) (float64, *tensor.Matrix) {
	grad := tensor.New(pred.Rows, pred.Cols)
	return MSELossInto(pred, target, grad), grad
}

// MSELossInto is the destination-passing form of MSELoss: the gradient is
// written into grad (which must match pred's shape) and the loss returned.
func MSELossInto(pred, target, grad *tensor.Matrix) float64 {
	if grad.Rows != pred.Rows || grad.Cols != pred.Cols {
		panic("nn: MSELossInto grad shape mismatch")
	}
	n := float64(len(pred.Data))
	loss := 0.0
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}

// Softmax computes row-wise softmax of logits into a new matrix.
func Softmax(logits *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		SoftmaxRowInto(out.Row(i), logits.Row(i))
	}
	return out
}

// SoftmaxRowInto stores softmax(row) into dst, which must have row's length
// (dst may be row itself). It is one row of Softmax, for callers whose
// logits are a span of a wider row.
func SoftmaxRowInto(dst, row []float64) {
	max := math.Inf(-1)
	for _, v := range row {
		if v > max {
			max = v
		}
	}
	// The exponentials go lane-wise where the CPU has the lanes; their sum
	// stays serial, in column order, which is what fixes its bits.
	tensor.ExpSubInto(dst, row, max)
	sum := 0.0
	for _, e := range dst {
		sum += e
	}
	for j := range dst {
		dst[j] /= sum
	}
}

// CrossEntropyLoss computes the mean categorical cross-entropy of logits
// against integer class labels, returning the loss and dLoss/dLogits
// (softmax - onehot)/batch.
func CrossEntropyLoss(logits *tensor.Matrix, labels []int) (float64, *tensor.Matrix) {
	n := float64(logits.Rows)
	loss := 0.0
	grad := tensor.New(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		loss += CrossEntropyRowInto(grad.Row(i), logits.Row(i), labels[i], n)
	}
	return loss / n, grad
}

// CrossEntropyRowInto is one row of CrossEntropyLoss: it stores
// (softmax(logits) - onehot(label))/n into g, which must have logits'
// length, and returns the row's loss term -log p[label] (not divided by n).
// It is the allocation-free form for callers whose logits are a span of a
// wider row.
func CrossEntropyRowInto(g, logits []float64, label int, n float64) float64 {
	SoftmaxRowInto(g, logits)
	term := -math.Log(math.Max(g[label], 1e-12))
	for j := range g {
		g[j] /= n
	}
	g[label] -= 1 / n
	return term
}

// BCEWithLogitsLoss computes the mean binary cross-entropy of logits against
// 0/1 targets, returning the loss and dLoss/dLogits (σ(x)-y)/batch. It is
// numerically stable via the log-sum-exp identity.
func BCEWithLogitsLoss(logits *tensor.Matrix, targets []float64) (float64, *tensor.Matrix) {
	n := float64(logits.Rows)
	loss := 0.0
	grad := tensor.New(logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		x := logits.Data[i]
		y := targets[i]
		// log(1+e^x) computed stably.
		var softplus float64
		if x > 0 {
			softplus = x + math.Log1p(math.Exp(-x))
		} else {
			softplus = math.Log1p(math.Exp(x))
		}
		loss += softplus - x*y
		sig := 1 / (1 + math.Exp(-x))
		grad.Data[i] = (sig - y) / n
	}
	return loss / n, grad
}

// GaussianNLLLoss computes the mean negative log-likelihood of target under
// per-element Normal(mean, exp(logVar)). It returns the loss and the
// gradients with respect to mean and logVar. Used by the autoencoder's
// continuous output heads (loss (4) in the paper).
func GaussianNLLLoss(mean, logVar, target *tensor.Matrix) (float64, *tensor.Matrix, *tensor.Matrix) {
	n := float64(len(mean.Data))
	gMean := tensor.New(mean.Rows, mean.Cols)
	gLV := tensor.New(mean.Rows, mean.Cols)
	loss := 0.0
	for i := range mean.Data {
		nll, gm, glv := GaussianNLLElem(mean.Data[i], logVar.Data[i], target.Data[i])
		loss += nll
		gMean.Data[i] = gm / n
		gLV.Data[i] = glv / n
	}
	return loss / n, gMean, gLV
}

// GaussianNLLElem is one element of GaussianNLLLoss: the negative
// log-likelihood of target under Normal(mean, exp(logVar)) with logVar
// clamped to ±10, and its gradients with respect to mean and logVar (zero
// for logVar outside the clamp). None of the three is divided by the batch
// size.
func GaussianNLLElem(mean, logVar, target float64) (nll, gMean, gLogVar float64) {
	const logVarClamp = 10
	lv := math.Max(-logVarClamp, math.Min(logVarClamp, logVar))
	inv := math.Exp(-lv)
	d := mean - target
	nll = 0.5 * (lv + d*d*inv)
	gMean = d * inv
	if logVar == lv { //silofuse:bitwise-ok inside clamp: gradient flows
		gLogVar = 0.5 * (1 - d*d*inv)
	}
	return nll, gMean, gLogVar
}
