package silo

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"silofuse/internal/diffusion"
	"silofuse/internal/nn"
	"silofuse/internal/obs"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// E2EPipeline is the end-to-end distributed baseline (the paper's
// E2EDistr, Fig. 9): encoders at the clients, the DDPM at the coordinator
// and decoders back at the clients are trained *jointly*, so every
// iteration exchanges forward activations and gradients — four matrix
// transfers per client per iteration. Its communication grows as
// O(#iterations), which Figure 10 contrasts with stacked training's single
// round.
//
// Batch row selection uses a seed shared between parties, so no index
// messages are needed; all tensor traffic flows through the Bus and is
// byte-accounted.
type E2EPipeline struct {
	Bus     Bus
	Schema  *tabular.Schema
	Parts   [][]int
	Clients []*Client
	Coord   *Coordinator
	Cfg     PipelineConfig
	// Rec, when non-nil, receives the e2e-train phase span, per-iteration
	// loss/throughput telemetry (stage "e2e") and bus message telemetry.
	Rec *obs.Recorder

	gauss *diffusion.Gaussian
	net   *nn.DiffusionMLP
	opt   *nn.Adam
	rng   *rand.Rand
	index clientIndex
}

// SetRecorder threads rec through the joint pipeline and its transport, the
// E2E counterpart of Pipeline.SetRecorder.
func (p *E2EPipeline) SetRecorder(rec *obs.Recorder) {
	p.Rec = rec
	for _, c := range p.Clients {
		c.AE.Rec = rec
	}
	p.Coord.Rec = rec
	if rs, ok := p.Bus.(RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// NewE2EPipeline partitions data and constructs the joint model. The
// diffusion backbone dimension equals the total latent width.
func NewE2EPipeline(bus Bus, data *tabular.Table, cfg PipelineConfig) (*E2EPipeline, error) {
	base, err := NewPipeline(bus, data, cfg)
	if err != nil {
		return nil, err
	}
	total := 0
	dims := make([]int, len(base.Clients))
	index := make(clientIndex, len(base.Clients))
	for i, c := range base.Clients {
		dims[i] = c.LatentDim()
		total += dims[i]
		index[c.ID] = i
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 777_777))
	var sch *diffusion.Schedule
	if cfg.Diff.CosineSch {
		sch = diffusion.CosineSchedule(cfg.Diff.T)
	} else {
		sch = diffusion.LinearSchedule(cfg.Diff.T, 1e-4, 0.02)
	}
	p := &E2EPipeline{
		Bus: bus, Schema: base.Schema, Parts: base.Parts,
		Clients: base.Clients, Coord: base.Coord, Cfg: cfg,
		gauss: diffusion.NewGaussian(sch),
		net:   nn.NewDiffusionMLP(rng, total, cfg.Diff.Hidden, total, cfg.Diff.Depth, cfg.Diff.TimeDim, cfg.Diff.Dropout),
		rng:   rng,
		index: index,
	}
	p.net.WarmTimesteps(cfg.Diff.T)
	p.opt = nn.NewAdam(p.net.Params(), cfg.Diff.LR)
	p.Coord.latentDims = dims
	return p, nil
}

// Train runs iters joint iterations and returns the mean combined loss
// (L_G + mean L_AE) over the final 10% of steps. Batch indices and diffusion
// noise are drawn from a generator derived from (seed, iteration), shared
// between the parties, so no index messages are needed.
func (p *E2EPipeline) Train(iters int) (float64, error) {
	batch := p.Cfg.Batch
	rows := p.Clients[0].Data.Rows()
	if batch > rows {
		batch = rows
	}
	span := p.Rec.StartSpan("e2e-train")
	span.SetAttr("clients", len(p.Clients))
	span.SetAttr("iters", iters)
	defer span.End()
	tail := iters - iters/10
	var tailLoss float64
	var tailCount int
	idx := make([]int, batch)
	var ms0 runtime.MemStats
	if p.Rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	for it := 0; it < iters; it++ {
		rng := derivedRng(p.Cfg.Seed, e2eIterSalt, it)
		for i := range idx {
			idx[i] = rng.Intn(rows)
		}
		t0 := p.Rec.Now()
		loss, err := p.trainStep(rng, idx)
		if err != nil {
			return 0, err
		}
		if p.Rec != nil {
			p.Rec.TrainStep("e2e", loss, batch, p.Rec.Since(t0))
		}
		if it >= tail {
			tailLoss += loss
			tailCount++
		}
	}
	if p.Rec != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.Rec.TrainAllocs("e2e", iters, ms1.Mallocs-ms0.Mallocs)
	}
	if tailCount == 0 {
		return 0, nil
	}
	mean := tailLoss / float64(tailCount)
	span.SetAttr("loss", mean)
	return mean, nil
}

// trainStep executes one end-to-end iteration over the bus, drawing all
// iteration randomness (timesteps, noise) from the supplied generator.
func (p *E2EPipeline) trainStep(rng *rand.Rand, idx []int) (float64, error) {
	// 1. Clients: encode the shared batch and upload activations.
	batches := make([]*tabular.Table, len(p.Clients))
	for i, c := range p.Clients {
		batches[i] = c.Data.SelectRows(idx)
		z := c.AE.ForwardEncode(batches[i], true)
		if err := p.Bus.Send(&Envelope{From: c.ID, To: p.Coord.ID, Kind: KindActivation, Payload: z}); err != nil {
			return 0, err
		}
	}
	// 2. Coordinator: collect, noise, predict, estimate x0, send down.
	zParts := make([]*tensor.Matrix, len(p.Clients))
	for range p.Clients {
		env, err := p.Bus.Recv(p.Coord.ID)
		if err != nil {
			return 0, err
		}
		if env.Kind != KindActivation {
			return 0, fmt.Errorf("silo: e2e expected activation, got %q", env.Kind)
		}
		ci, err := p.index.of(env.From)
		if err != nil {
			return 0, err
		}
		zParts[ci] = env.Payload
	}
	z := tensor.HStack(zParts...)
	n := z.Rows
	ts := p.gauss.SampleTimesteps(rng, n)
	eps := tensor.New(n, z.Cols).Randn(rng, 1)
	zt := p.gauss.QSample(z, ts, eps)
	pred := p.net.Forward(zt, ts, true)
	lossG, gradPred := nn.MSELoss(pred, eps)

	// x0 estimate: (z_t - sqrt(1-ᾱ)·ε̂)/sqrt(ᾱ), per-row coefficients.
	x0est := tensor.New(n, z.Cols)
	sqab := make([]float64, n)
	sq1ab := make([]float64, n)
	for i := 0; i < n; i++ {
		ab := p.gauss.S.AlphaBar[ts[i]]
		sqab[i] = math.Sqrt(ab)
		sq1ab[i] = math.Sqrt(1 - ab)
		zr, pr, xr := zt.Row(i), pred.Row(i), x0est.Row(i)
		for j := range xr {
			xr[j] = (zr[j] - sq1ab[i]*pr[j]) / sqab[i]
		}
	}
	off := 0
	for _, c := range p.Clients {
		d := c.LatentDim()
		part := x0est.SliceCols(off, off+d)
		off += d
		if err := p.Bus.Send(&Envelope{From: p.Coord.ID, To: c.ID, Kind: KindDenoised, Payload: part}); err != nil {
			return 0, err
		}
	}

	// 3. Clients: decoder loss on the denoised latents, gradient back up.
	var lossAE float64
	for ci, c := range p.Clients {
		env, err := p.Bus.Recv(c.ID)
		if err != nil {
			return 0, err
		}
		if env.Kind != KindDenoised {
			return 0, fmt.Errorf("silo: e2e expected denoised latents, got %q", env.Kind)
		}
		loss, gradX0 := c.AE.DecoderLossGrad(env.Payload, batches[ci], true)
		lossAE += loss
		if err := p.Bus.Send(&Envelope{From: c.ID, To: p.Coord.ID, Kind: KindGradUp, Payload: gradX0}); err != nil {
			return 0, err
		}
	}
	lossAE /= float64(len(p.Clients))

	// 4. Coordinator: exact joint backward. The x0 estimate contributes to
	// the backbone's output gradient (−sqrt(1−ᾱ)/sqrt(ᾱ) per row) and
	// directly to dz_t (1/sqrt(ᾱ)); dz = dz_t·sqrt(ᾱ) folds to
	// net-input-grad·sqrt(ᾱ) + gradX0.
	gradX0Parts := make([]*tensor.Matrix, len(p.Clients))
	for range p.Clients {
		env, err := p.Bus.Recv(p.Coord.ID)
		if err != nil {
			return 0, err
		}
		if env.Kind != KindGradUp {
			return 0, fmt.Errorf("silo: e2e expected gradient, got %q", env.Kind)
		}
		ci, err := p.index.of(env.From)
		if err != nil {
			return 0, err
		}
		gradX0Parts[ci] = env.Payload
	}
	gradX0 := tensor.HStack(gradX0Parts...)
	combined := gradPred.Clone()
	for i := 0; i < n; i++ {
		coef := -sq1ab[i] / sqab[i]
		cr, gr := combined.Row(i), gradX0.Row(i)
		for j := range cr {
			cr[j] += coef * gr[j]
		}
	}
	dzt := p.net.Backward(combined)
	dz := tensor.New(n, z.Cols)
	for i := 0; i < n; i++ {
		dr, tr, gr := dz.Row(i), dzt.Row(i), gradX0.Row(i)
		for j := range dr {
			dr[j] = tr[j]*sqab[i] + gr[j]
		}
	}
	p.opt.Step()
	off = 0
	for _, c := range p.Clients {
		d := c.LatentDim()
		part := dz.SliceCols(off, off+d)
		off += d
		if err := p.Bus.Send(&Envelope{From: p.Coord.ID, To: c.ID, Kind: KindGradDown, Payload: part}); err != nil {
			return 0, err
		}
	}

	// 5. Clients: encoder backward and parameter step.
	for _, c := range p.Clients {
		env, err := p.Bus.Recv(c.ID)
		if err != nil {
			return 0, err
		}
		if env.Kind != KindGradDown {
			return 0, fmt.Errorf("silo: e2e expected encoder gradient, got %q", env.Kind)
		}
		c.AE.BackwardEncoder(env.Payload)
		c.AE.Step()
	}
	return lossG + lossAE, nil
}

// clientIndex maps a client's bus ID to its position, built once per model:
// a message from the coordinator, from a client the run does not have or
// under a garbage name is an error, not a write to slot 0 or past the slice.
type clientIndex map[string]int

func (ci clientIndex) of(id string) (int, error) {
	i, ok := ci[id]
	if !ok {
		return 0, fmt.Errorf("%w %q", ErrUnknownSender, id)
	}
	return i, nil
}

// Synthesize draws n rows end-to-end: the backbone samples latents from
// noise, partitions are distributed, and clients decode — the same
// Algorithm 2 flow as stacked synthesis.
func (p *E2EPipeline) Synthesize(n int, sample bool) (*tabular.Table, error) {
	span := p.Rec.StartSpan("synthesis")
	span.SetAttr("rows", n)
	span.SetAttr("steps", p.Cfg.SynthSteps)
	defer span.End()
	if n < 0 {
		return nil, fmt.Errorf("silo: cannot synthesize %d rows", n)
	}
	z := p.gauss.Sample(p.rng, netPredictor{p.net}, n, p.net.In, p.Cfg.SynthSteps, 0)
	parts, err := p.Coord.splitLatents(z)
	if err != nil {
		return nil, err
	}
	if err := p.Coord.DistributeLatents(p.Bus, parts); err != nil {
		return nil, err
	}
	out := make([]*tabular.Table, len(p.Clients))
	for ci, c := range p.Clients {
		env, err := p.Bus.Recv(c.ID)
		if err != nil {
			return nil, err
		}
		out[ci], err = c.DecodeLatents(env.Payload, sample)
		if err != nil {
			return nil, err
		}
	}
	return tabular.JoinVertical(p.Schema, p.Parts, out)
}

// netPredictor adapts a raw backbone to the diffusion.NoisePredictor
// interface in evaluation mode.
type netPredictor struct{ net *nn.DiffusionMLP }

func (n netPredictor) Predict(x *tensor.Matrix, ts []int) *tensor.Matrix {
	return n.net.Forward(x, ts, false)
}
