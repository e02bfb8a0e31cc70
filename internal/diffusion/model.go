package diffusion

import (
	"math/rand"
	"runtime"
	"silofuse/internal/nn"
	"silofuse/internal/obs"
	"silofuse/internal/tensor"
)

// ModelConfig configures a Gaussian DDPM with an MLP backbone.
type ModelConfig struct {
	Dim       int     // data dimension
	Hidden    int     // backbone hidden width
	Depth     int     // backbone hidden blocks (paper: 8)
	TimeDim   int     // sinusoidal embedding width
	T         int     // training timesteps (paper: 200)
	LR        float64 // Adam learning rate (paper: 1e-3)
	Dropout   float64 // backbone dropout (paper: 0.01)
	CosineSch bool    // cosine schedule instead of linear
	// EMADecay, when > 0, maintains an exponential moving average of the
	// backbone weights while the model trains — the standard diffusion
	// training stabiliser. ReleaseTraining makes the average the model's
	// weights, so sampling, Save and Load all read it.
	EMADecay float64
	// Precision selects the sampling compute tier: "" or "f64" runs the
	// historical float64 path (bit-identical, the default); "f32" runs the
	// DDIM sampling loop — backbone forward, ping-pong buffers and
	// per-element update — in float32 on the reduced-precision kernels.
	// Training is always float64 regardless of this setting.
	Precision string
}

// Model couples the Gaussian process mechanics with a trainable noise
// predictor and its optimiser — the coordinator's generative backbone 𝒢.
type Model struct {
	G   *Gaussian
	Net *nn.DiffusionMLP
	Opt *nn.Adam
	// Rec, when non-nil, receives per-step loss/throughput telemetry from
	// Train (stage "diffusion"). nil means telemetry off at zero cost.
	Rec *obs.Recorder
	rng *rand.Rand

	// precision is ModelConfig.Precision; "f32" routes Sample through the
	// float32 kernel path.
	precision string

	// Training state, allocated by the step that first writes it and dropped
	// by ReleaseTraining: the weight average (EMADecay > 0 only) and the
	// workspaces, reused across steps while the batch shape is unchanged, so
	// a steady-state TrainStep allocates nothing.
	emaDecay                         float64
	ema                              *nn.EMA
	tsBuf                            []int
	epsBuf, xtBuf, gradBuf, batchBuf *tensor.Matrix
	noise                            noiseDraw

	// Sampling workspaces (SampleBatchWithRngs, which every sample runs
	// through): the ping-pong matrices, the timestep slice, and the strided
	// inference schedule cached by step count (StridedTimesteps allocates,
	// so the warm path reuses the last schedule while steps is unchanged).
	sampleX, sampleBuf *tensor.Matrix
	sampleTs           []int
	sampleSeq          []int
	sampleSteps        int
}

// NewModel builds a model from cfg, drawing initial weights from rng.
func NewModel(rng *rand.Rand, cfg ModelConfig) *Model {
	var sch *Schedule
	if cfg.CosineSch {
		sch = CosineSchedule(cfg.T)
	} else {
		sch = LinearSchedule(cfg.T, 1e-4, 0.02)
	}
	net := nn.NewDiffusionMLP(rng, cfg.Dim, cfg.Hidden, cfg.Dim, cfg.Depth, cfg.TimeDim, cfg.Dropout)
	net.WarmTimesteps(cfg.T)
	m := &Model{
		G:         NewGaussian(sch),
		Net:       net,
		Opt:       nn.NewAdam(net.Params(), cfg.LR),
		rng:       rng,
		precision: cfg.Precision,
		emaDecay:  cfg.EMADecay,
	}
	return m
}

// ReleaseTraining ends a training run. The weight average, if one was kept,
// becomes the weights; gradients, Adam's moments and step count, the
// backbone's batch-shaped workspaces and the step's own are dropped. The
// model is then what loading its Save stream into NewModel builds: it samples
// from the weights it holds, and training it again starts a fresh optimiser
// and a fresh average.
func (m *Model) ReleaseTraining() {
	if m.ema != nil {
		m.ema.Fold()
		m.ema = nil
	}
	m.Net.ReleaseTraining()
	m.Opt.ReleaseTraining()
	m.tsBuf, m.epsBuf, m.xtBuf, m.gradBuf, m.batchBuf = nil, nil, nil, nil, nil
	m.noise = noiseDraw{}
}

// noiseDraw draws a step's ε on the pool, beside the packing of the step's
// weights, and says when it is done. Nothing else reads the model's rng
// until then, so the draw is the one the step would take itself.
type noiseDraw struct {
	eps  *tensor.Matrix
	rng  *rand.Rand
	done chan struct{}
}

func (d *noiseDraw) RunRange(_, _ int) {
	d.eps.Randn(d.rng, 1)
	d.done <- struct{}{}
}

// TrainStep performs one optimisation step on a batch of clean data x0:
// sample t and ε, noise to x_t, predict ε, minimise MSE (paper eq. 5).
// It returns the batch loss.
func (m *Model) TrainStep(x0 *tensor.Matrix) float64 {
	if m.emaDecay > 0 && m.ema == nil {
		m.ema = nn.NewEMA(m.Net.Params(), m.emaDecay) // the average starts at the weights the run starts at
	}
	m.tsBuf = tensor.EnsureInts(m.tsBuf, x0.Rows)
	ts := m.tsBuf
	m.G.SampleTimestepsInto(m.rng, ts)
	m.epsBuf = tensor.Ensure(m.epsBuf, x0.Rows, x0.Cols)
	if m.noise.done == nil {
		m.noise.done = make(chan struct{}, 1)
	}
	m.noise.eps, m.noise.rng = m.epsBuf, m.rng
	tensor.Beside(&m.noise)
	m.Net.Prepack(x0.Rows)
	<-m.noise.done
	eps := m.epsBuf
	m.xtBuf = tensor.Ensure(m.xtBuf, x0.Rows, x0.Cols)
	xt := m.G.QSampleInto(m.xtBuf, x0, ts, eps)
	pred := m.Net.Forward(xt, ts, true)
	m.gradBuf = tensor.Ensure(m.gradBuf, pred.Rows, pred.Cols)
	loss := nn.MSELossInto(pred, eps, m.gradBuf)
	m.Net.BackwardParams(m.gradBuf) // x_t is data: nobody reads its gradient
	m.Opt.Step()
	if m.ema != nil {
		m.ema.Update()
	}
	return loss
}

// Train runs iters optimisation steps with minibatches of size batch drawn
// uniformly from data, returning the mean loss of the final 10% of steps,
// and at least the last one.
func (m *Model) Train(data *tensor.Matrix, iters, batch int) float64 {
	if batch > data.Rows {
		batch = data.Rows
	}
	tail := iters - max(1, iters/10)
	var tailLoss float64
	var tailCount int
	idx := make([]int, batch)
	m.batchBuf = tensor.Ensure(m.batchBuf, batch, data.Cols)
	var ms0 runtime.MemStats
	if m.Rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	for it := 0; it < iters; it++ {
		for i := range idx {
			idx[i] = m.rng.Intn(data.Rows)
		}
		t0 := m.Rec.Now()
		loss := m.TrainStep(data.GatherRowsInto(m.batchBuf, idx))
		if m.Rec != nil {
			m.Rec.TrainStep("diffusion", loss, batch, m.Rec.Since(t0))
		}
		if it >= tail {
			tailLoss += loss
			tailCount++
		}
	}
	if m.Rec != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		m.Rec.TrainAllocs("diffusion", iters, ms1.Mallocs-ms0.Mallocs)
	}
	if tailCount == 0 {
		return 0
	}
	return tailLoss / float64(tailCount)
}

// Predict implements NoisePredictor in evaluation mode (no dropout).
func (m *Model) Predict(x *tensor.Matrix, ts []int) *tensor.Matrix {
	return m.Net.Forward(x, ts, false)
}

// Sample draws n synthetic rows using steps inference timesteps, from the
// weights the model holds.
func (m *Model) Sample(n, steps int) *tensor.Matrix {
	return m.SampleWithRng(m.rng, n, steps)
}

// SampleWithRng is Sample with an explicit randomness source, for callers
// that need reproducible draws independent of training state. It is the
// one-lane case of SampleBatchWithRngs; the returned rows are the caller's.
func (m *Model) SampleWithRng(rng *rand.Rand, n, steps int) *tensor.Matrix {
	return m.SampleBatchWithRngs([]*rand.Rand{rng}, []int{n}, steps).Clone()
}

// sample32 runs the reduced-precision sampling loop. The backbone weights
// are snapshotted to float32 here and the result stays float32 until the
// caller converts it once at the boundary.
func (m *Model) sample32(rng *rand.Rand, n, steps int) *tensor.Matrix32 {
	net32, err := m.Net.Snapshot32()
	if err != nil {
		// The backbone trunk is Linear/GELU/Dropout by construction; any
		// other layer reaching here is a programming error, not a runtime
		// condition.
		panic(err)
	}
	p := &predictor32{net: net32}
	return m.G.Sample32(rng, p, n, m.Net.In, steps, 0)
}

// predictor32 adapts the float32 backbone snapshot to NoisePredictor32.
type predictor32 struct{ net *nn.DiffusionMLP32 }

func (p *predictor32) Predict32(x *tensor.Matrix32, ts []int) *tensor.Matrix32 {
	return p.net.Forward(x, ts)
}
