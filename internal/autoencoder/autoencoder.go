// Package autoencoder implements the per-client tabular autoencoder of the
// paper: an MLP encoder mapping one-hot + standardised features to compact
// continuous latents, and a decoder with distributional output heads — a
// Gaussian (mean, log-variance) head per numeric feature and a multinomial
// (softmax) head per categorical feature — trained by negative
// log-likelihood (paper eq. 4, following TVAE-style heads).
//
// Two rules keep its memory independent of the one-hot width and the table
// size: categorical cells travel as codes (the encoder's first layer gathers
// rows of its weights, the loss and the decoder index their heads; no
// one-hot matrix is built), and no activation is ever table-sized (Encode
// walks the table in chunks of the training batch shape).
package autoencoder

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"silofuse/internal/nn"
	"silofuse/internal/obs"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// Config holds the autoencoder hyper-parameters. The paper uses three
// linear layers per coder with GELU, hidden width 1024 and embedding width
// 32 in the centralized model (split evenly across clients in the
// distributed one), and latent size equal to the number of raw features.
type Config struct {
	Hidden int     // hidden layer width
	Embed  int     // bottleneck-adjacent embedding width
	Latent int     // latent feature count (paper: = #raw features)
	LR     float64 // Adam learning rate
	// DecodePrecision selects the decoder forward tier for Decode: "" or
	// "f64" is the historical float64 path (bit-identical, the default);
	// "f32" runs the decoder MLP in float32 on the reduced-precision
	// kernels, widening once before the distributional heads (whose
	// sampling/argmax logic stays float64). Training always runs float64.
	DecodePrecision string
}

// headSpan locates one column's slice of the decoder head output.
type headSpan struct {
	col  int
	kind tabular.Kind
	lo   int // start offset in head output
	hi   int
}

// Autoencoder is one client's encoder/decoder pair (E_i, D_i).
type Autoencoder struct {
	Schema *tabular.Schema
	Cfg    Config
	Enc    *tabular.Encoder // featuriser statistics: spans, mean, std (its Transform is not called)
	// Rec, when non-nil, receives per-step loss/throughput telemetry from
	// Train (stage "ae"). Shared safely across clients training in parallel.
	Rec *obs.Recorder
	// SkipAllocStats suppresses Train's per-loop allocation measurement.
	// The measurement reads global runtime.MemStats deltas, which count
	// every goroutine's allocations: when sibling autoencoders train
	// concurrently (the pipeline's AE phase), per-loop windows overlap
	// arbitrarily and the numbers are scheduling-dependent garbage. The
	// pipeline sets this and measures the whole parallel phase instead.
	SkipAllocStats bool

	input   *inputLayer    // encoder.Layers[0]
	encoder *nn.Sequential // takes raw table rows
	decoder *nn.Sequential // trunk + final head linear
	spans   []headSpan
	opt     *nn.Adam
	rng     *rand.Rand

	lossGrad *tensor.Matrix // reconstructionLoss's persistent gradient workspace
	ce       ceRows         // reconstructionLoss's softmax-CE kernel and per-row terms
	encPad   *tensor.Matrix // Encode's padded final chunk
	softmax  softmaxRows    // Decode's pooled softmax of one categorical head
}

// New builds an autoencoder for the columns of train and fits the input
// featuriser on it. Model weights are drawn from rng.
func New(rng *rand.Rand, train *tabular.Table, cfg Config) *Autoencoder {
	if cfg.Latent <= 0 {
		cfg.Latent = train.Schema.NumColumns()
	}
	enc := tabular.NewEncoder(train)

	// Head layout: [mean, logVar] per numeric column, card logits per
	// categorical column, in schema order.
	var spans []headSpan
	off := 0
	for j, c := range train.Schema.Columns {
		sp := headSpan{col: j, kind: c.Kind, lo: off}
		if c.Kind == tabular.Numeric {
			off += 2
		} else {
			off += c.Cardinality
		}
		sp.hi = off
		spans = append(spans, sp)
	}

	input := newInputLayer(rng, enc, cfg.Hidden)
	a := &Autoencoder{
		Schema: train.Schema,
		Cfg:    cfg,
		Enc:    enc,
		input:  input,
		encoder: nn.NewSequential(
			input, &nn.GELU{},
			nn.NewLinear(rng, cfg.Hidden, cfg.Embed), &nn.GELU{},
			nn.NewLinear(rng, cfg.Embed, cfg.Latent),
		),
		decoder: nn.NewSequential(
			nn.NewLinear(rng, cfg.Latent, cfg.Embed), &nn.GELU{},
			nn.NewLinear(rng, cfg.Embed, cfg.Hidden), &nn.GELU{},
			nn.NewLinear(rng, cfg.Hidden, off),
		),
		spans: spans,
		rng:   rng,
	}
	params := append(a.encoder.Params(), a.decoder.Params()...)
	a.opt = nn.NewAdam(params, cfg.LR)
	return a
}

// ReleaseTraining drops everything only a training step or the encoder writes
// — gradients, Adam's moments and step count, every layer's batch-shaped
// workspaces, the loss workspaces, Encode's padding — and keeps the weights
// and the featuriser. The model is then what Load builds: Decode sizes the
// decoder's workspaces for its own batch, and training it again starts a
// fresh optimiser.
func (a *Autoencoder) ReleaseTraining() {
	a.encoder.ReleaseTraining()
	a.decoder.ReleaseTraining()
	a.opt.ReleaseTraining()
	a.lossGrad, a.ce, a.encPad, a.softmax = nil, ceRows{}, nil, softmaxRows{}
}

// Params returns the encoder's parameters followed by the decoder's, the
// order a checkpoint records them in.
func (a *Autoencoder) Params() []*nn.Param {
	return append(append([]*nn.Param{}, a.encoder.Params()...), a.decoder.Params()...)
}

// LatentDim returns the latent width s_i contributed by this client.
func (a *Autoencoder) LatentDim() int { return a.Cfg.Latent }

// TrainStep runs one optimisation step on a batch table and returns the
// total reconstruction NLL.
func (a *Autoencoder) TrainStep(batch *tabular.Table) float64 {
	z := a.encoder.Forward(batch.Data, true)
	out := a.decoder.Forward(z, true)
	loss, grad := a.reconstructionLoss(out, batch)
	gz := a.decoder.Backward(grad)
	a.encoder.BackwardParams(gz)
	a.opt.Step()
	return loss
}

// Train runs iters minibatch steps and returns the mean loss over the final
// 10% of iterations, and at least the last one.
func (a *Autoencoder) Train(train *tabular.Table, iters, batch int) float64 {
	if batch > train.Rows() {
		batch = train.Rows()
	}
	tail := iters - max(1, iters/10)
	var tailLoss float64
	var tailCount int
	idx := make([]int, batch)
	mini := &tabular.Table{Schema: train.Schema, Data: tensor.New(batch, train.Data.Cols)}
	measureAllocs := a.Rec != nil && !a.SkipAllocStats
	var ms0 runtime.MemStats
	if measureAllocs {
		runtime.ReadMemStats(&ms0)
	}
	for it := 0; it < iters; it++ {
		for i := range idx {
			idx[i] = a.rng.Intn(train.Rows())
		}
		t0 := a.Rec.Now()
		train.Data.GatherRowsInto(mini.Data, idx)
		loss := a.TrainStep(mini)
		if a.Rec != nil {
			a.Rec.TrainStep("ae", loss, batch, a.Rec.Since(t0))
		}
		if it >= tail {
			tailLoss += loss
			tailCount++
		}
	}
	if measureAllocs {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		a.Rec.TrainAllocs("ae", iters, ms1.Mallocs-ms0.Mallocs)
	}
	if tailCount == 0 {
		return 0
	}
	return tailLoss / float64(tailCount)
}

// reconstructionLoss computes the summed per-column NLL and the gradient
// with respect to the head outputs. The gradient is written row-wise into a
// workspace the autoencoder owns, valid until the next call; each head's
// arithmetic and the loss summation order (rows within a column, then
// columns in schema order) are those of nn.GaussianNLLLoss and
// nn.CrossEntropyLoss applied to the column's span.
func (a *Autoencoder) reconstructionLoss(out *tensor.Matrix, batch *tabular.Table) (float64, *tensor.Matrix) {
	a.lossGrad = tensor.Ensure(a.lossGrad, out.Rows, out.Cols)
	grad := a.lossGrad
	n := float64(out.Rows)
	total := 0.0
	for _, sp := range a.spans {
		loss := 0.0
		if sp.kind == tabular.Numeric {
			mean, std := a.Enc.Mean[sp.col], a.Enc.Std[sp.col]
			for i := 0; i < out.Rows; i++ {
				head, g := out.Row(i)[sp.lo:sp.hi], grad.Row(i)[sp.lo:sp.hi]
				target := (batch.Data.At(i, sp.col) - mean) / std
				nll, gMean, gLogVar := nn.GaussianNLLElem(head[0], head[1], target)
				loss += nll
				g[0] = gMean / n
				g[1] = gLogVar / n
			}
		} else {
			// Rows are independent, so a wide head's exp-heavy softmax rows
			// go to the worker pool; each row leaves its loss term behind
			// and the terms are summed here, in row order, as the serial
			// loop summed them.
			ce := &a.ce
			ce.grad, ce.out, ce.labels = grad, out, batch.Data
			ce.col, ce.lo, ce.hi, ce.n = sp.col, sp.lo, sp.hi, n
			ce.terms = tensor.EnsureVec(ce.terms, out.Rows)
			tensor.ParallelRange(ce, out.Rows, out.Rows*(sp.hi-sp.lo))
			for _, term := range ce.terms {
				loss += term
			}
		}
		total += loss / n
	}
	return total, grad
}

// ceRows is the softmax cross-entropy of one categorical head as a
// tensor.RangeKernel over batch rows.
type ceRows struct {
	grad, out, labels *tensor.Matrix // labels: the batch's raw rows, codes in column col
	col, lo, hi       int            // source column; the head's span of out and grad
	n                 float64
	terms             []float64 // per-row -log p[label]
}

func (k *ceRows) RunRange(r0, r1 int) {
	for i := r0; i < r1; i++ {
		label := int(k.labels.At(i, k.col))
		k.terms[i] = nn.CrossEntropyRowInto(k.grad.Row(i)[k.lo:k.hi], k.out.Row(i)[k.lo:k.hi], label, k.n)
	}
}

// Encode maps a table to its latent representation Z_i = E_i(X_i) in
// evaluation mode.
//
// The table goes through the encoder in chunks of the shape the layer
// workspaces already have — the training batch, or encodeChunk rows on a
// model that has not run yet — and each chunk's latents are copied into the
// result, which the caller owns (the pipeline retains it, and DP noising
// mutates it in place). Rows are independent in every encoder layer, so the
// latents are those of one table-sized batch; what differs is that no
// workspace grows to table size and stays that way for the life of the
// model, and that a training step after Encode finds its workspaces as it
// left them. The final, shorter chunk is padded to the chunk shape for the
// same reason.
func (a *Autoencoder) Encode(t *tabular.Table) *tensor.Matrix {
	rows, cols, latent := t.Rows(), t.Data.Cols, a.Cfg.Latent
	z := tensor.New(rows, latent)
	chunk := encodeChunk
	if a.input.out != nil {
		chunk = a.input.out.Rows
	}
	for lo := 0; lo < rows; lo += chunk {
		n := min(chunk, rows-lo)
		in := t.Data.Data[lo*cols : (lo+n)*cols]
		if n < chunk {
			a.encPad = tensor.Ensure(a.encPad, chunk, cols)
			copy(a.encPad.Data, in)
			for r := n; r < chunk; r++ {
				copy(a.encPad.Row(r), in[:cols]) // any valid row will do
			}
			in = a.encPad.Data
		}
		out := a.encoder.Forward(tensor.FromSlice(chunk, cols, in), false)
		copy(z.Data[lo*latent:], out.Data[:n*latent])
	}
	return z
}

// encodeChunk is Encode's chunk on a model whose encoder has not run yet.
const encodeChunk = 256

// Decode maps latents back to the data space. When sample is true, numeric
// values are drawn from the Gaussian heads and categories from the softmax
// heads; otherwise the mean / arg-max is used.
func (a *Autoencoder) Decode(z *tensor.Matrix, sample bool, rng *rand.Rand) (*tabular.Table, error) {
	if z.Cols != a.Cfg.Latent {
		return nil, fmt.Errorf("autoencoder: latent width %d, expected %d", z.Cols, a.Cfg.Latent)
	}
	out, err := a.decodeForward(z)
	if err != nil {
		return nil, err
	}
	data := tensor.New(z.Rows, a.Schema.NumColumns())
	for _, sp := range a.spans {
		switch sp.kind {
		case tabular.Numeric:
			for i := 0; i < z.Rows; i++ {
				v := out.At(i, sp.lo)
				if sample {
					lv := math.Max(-10, math.Min(10, out.At(i, sp.lo+1)))
					v += math.Exp(lv/2) * rng.NormFloat64()
				}
				data.Set(i, sp.col, v*a.Enc.Std[sp.col]+a.Enc.Mean[sp.col])
			}
		case tabular.Categorical:
			// Every row's softmax first, in place over its logits and on
			// the pool once the head is wide enough; then the draws,
			// serially and in row order, so the rng is read as it was
			// when each row's softmax came just before its draw.
			a.softmax = softmaxRows{out: out, lo: sp.lo, hi: sp.hi}
			tensor.ParallelRange(&a.softmax, z.Rows, z.Rows*(sp.hi-sp.lo))
			for i := 0; i < z.Rows; i++ {
				row := out.Row(i)[sp.lo:sp.hi]
				var code int
				if sample {
					code = sampleIndex(rng, row)
				} else {
					code = argmax(row)
				}
				data.Set(i, sp.col, float64(code))
			}
		}
	}
	return tabular.NewTable(a.Schema, data)
}

// decodeForward runs the decoder MLP in the configured precision tier. The
// f32 path snapshots the trained weights to float32 on every call — the
// narrowing is O(params), noise against the O(rows·params) forward — which
// keeps the snapshot trivially in sync with training, and widens the head
// outputs once so the distributional head logic stays float64.
func (a *Autoencoder) decodeForward(z *tensor.Matrix) (*tensor.Matrix, error) {
	if a.Cfg.DecodePrecision != "f32" {
		return a.decoder.Forward(z, false), nil
	}
	dec32, err := nn.NewSequential32(a.decoder)
	if err != nil {
		return nil, fmt.Errorf("autoencoder: f32 decode: %w", err)
	}
	return tensor.To64(dec32.Forward(tensor.To32(z))), nil
}

// softmaxRows is the softmax of one categorical head's span of the decoder
// output, in place, as a tensor.RangeKernel over rows.
type softmaxRows struct {
	out    *tensor.Matrix
	lo, hi int
}

func (k *softmaxRows) RunRange(r0, r1 int) {
	for i := r0; i < r1; i++ {
		row := k.out.Row(i)[k.lo:k.hi]
		nn.SoftmaxRowInto(row, row)
	}
}

func argmax(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v > xs[best] {
			best = i
		}
	}
	return best
}

func sampleIndex(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, p := range probs {
		acc += p
		if u <= acc {
			return i
		}
	}
	return len(probs) - 1
}
