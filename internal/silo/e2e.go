package silo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

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
	// Net is the joint denoising backbone, trained at the coordinator with
	// gradients that flow back through every client's autoencoder.
	Net   *nn.DiffusionMLP
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
		Net:   nn.NewDiffusionMLP(rng, total, cfg.Diff.Hidden, total, cfg.Diff.Depth, cfg.Diff.TimeDim, cfg.Diff.Dropout),
		rng:   rng,
		index: index,
	}
	p.Net.WarmTimesteps(cfg.Diff.T)
	p.opt = nn.NewAdam(p.Net.Params(), cfg.Diff.LR)
	p.Coord.latentDims = dims
	return p, nil
}

// Train runs iters joint iterations and returns the mean combined loss
// (L_G + mean L_AE) over the final 10% of steps, and at least the last one.
//
// Every party runs its side of the protocol on its own goroutine, as it
// would on its own machine: each client on one Train starts, the coordinator
// on the caller's. Each sends the message its peer waits for before work
// nobody waits for: a client sends grad-up before it takes its decoder's
// weight gradients, and the coordinator sends grad-down before it takes the
// backbone's and steps Adam, which then overlaps the clients' encoder
// backward and their next encode. Batch rows and diffusion noise are drawn
// from a generator derived from (seed, iteration), which every party derives
// for itself, so no index messages are needed; on every link the messages
// and their order are those of one party after another.
//
// Bus.Recv cannot be cancelled, so a party receives only after the sender
// has said, beside the bus, that its Send returned (a client's report also
// carries its loss). A party that fails says so instead and leaves, and
// every other party leaves at its next handshake. Train returns once every
// party has ended, with the first error in party order: the coordinator's,
// then the clients' by index.
func (p *E2EPipeline) Train(iters int) (float64, error) {
	batch := min(p.Cfg.Batch, p.Clients[0].Data.Rows())
	span := p.Rec.StartSpan("e2e-train")
	span.SetAttr("clients", len(p.Clients))
	span.SetAttr("iters", iters)
	defer span.End()
	var ms0 runtime.MemStats
	if p.Rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	reports := make(chan e2eReport, len(p.Clients))
	sent := make([]chan struct{}, len(p.Clients))
	errs := make([]error, len(p.Clients))
	var wg sync.WaitGroup
	for ci := range p.Clients {
		sent[ci] = make(chan struct{}, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[ci] = p.runClient(ci, iters, batch, reports, sent[ci])
		}()
	}
	mean, err := p.runCoordinator(iters, batch, reports, sent)
	wg.Wait()
	if err == errPartyLeft {
		err = nil
	}
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	if err != nil {
		return 0, err
	}
	if p.Rec != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.Rec.TrainAllocs("e2e", iters, ms1.Mallocs-ms0.Mallocs)
	}
	span.SetAttr("loss", mean)
	return mean, nil
}

// e2eReport is what a client tells the coordinator beside the bus: that a
// Send returned, with its decoder loss after a grad-up, or, with err set,
// that it failed and left.
type e2eReport struct {
	client int
	loss   float64
	err    error
}

// errPartyLeft ends a party's loop when another party has failed: the error
// Train returns is that party's.
var errPartyLeft = errors.New("silo: e2e party left")

// runClient is client ci's side of Train. After each Send it reports to the
// coordinator on reports; before each Recv it waits on sent for the
// coordinator's word that the message was sent, and leaves without an error
// of its own when sent is closed instead.
func (p *E2EPipeline) runClient(ci, iters, batch int, reports chan<- e2eReport, sent <-chan struct{}) error {
	c, coord := p.Clients[ci], p.Coord.ID
	rows := c.Data.Rows()
	mini := &tabular.Table{Schema: c.Data.Schema, Data: tensor.New(batch, c.Data.Data.Cols)}
	idx := make([]int, batch)
	rng := rand.New(rand.NewSource(0))
	leave := func(err error) error {
		if err == errPartyLeft {
			return nil
		}
		reports <- e2eReport{client: ci, err: err}
		return err
	}
	send := func(kind Kind, m *tensor.Matrix, loss float64) error {
		err := p.Bus.Send(&Envelope{From: c.ID, To: coord, Kind: kind, Payload: m})
		if err == nil {
			reports <- e2eReport{client: ci, loss: loss}
		}
		return err
	}
	recv := func(kind Kind) (*tensor.Matrix, error) {
		if _, ok := <-sent; !ok {
			return nil, errPartyLeft
		}
		env, err := p.Bus.Recv(c.ID)
		if err == nil {
			err = e2eCheck(env, kind, coord)
		}
		if err != nil {
			return nil, err
		}
		return env.Payload, nil
	}
	for it := 0; it < iters; it++ {
		derivedRng(rng, p.Cfg.Seed, e2eIterSalt, it)
		for i := range idx {
			idx[i] = rng.Intn(rows)
		}
		c.Data.Data.GatherRowsInto(mini.Data, idx)
		if err := send(KindActivation, c.AE.ForwardEncode(mini, true), 0); err != nil {
			return leave(err)
		}

		x0, err := recv(KindDenoised)
		if err != nil {
			return leave(err)
		}
		loss, gradX0 := c.AE.DecoderLossGrad(x0, mini, true)
		err = send(KindGradUp, gradX0, loss)
		c.AE.TakeDecoderGrads() // also on failure: a later Train finds nothing pending
		if err != nil {
			return leave(err)
		}

		dz, err := recv(KindGradDown)
		if err != nil {
			return leave(err)
		}
		c.AE.BackwardEncoder(dz)
		c.AE.Step()
	}
	return nil
}

// e2eCheck refuses a received envelope of the wrong kind, or one that is not
// from the party the protocol expects it from (from; "" for any client, whose
// name the caller resolves).
func e2eCheck(env *Envelope, kind Kind, from string) error {
	if env.Kind != kind {
		return fmt.Errorf("silo: e2e expected %s, got %q", kind, env.Kind)
	}
	if from != "" && env.From != from {
		return fmt.Errorf("%w %q", ErrUnknownSender, env.From)
	}
	return nil
}

// runCoordinator is the coordinator's side of Train; it returns the loss
// Train reports. Before each Recv it waits for a client's report that the
// message was sent, and after each Send to a client it says so on that
// client's channel in sent, which it closes when it leaves. The workspaces
// below serve every iteration: a matrix handed to the bus is rewritten only
// after the receiver's next message, which proves the receiver has finished
// with it.
func (p *E2EPipeline) runCoordinator(iters, batch int, reports <-chan e2eReport, sent []chan struct{}) (float64, error) {
	defer func() {
		for _, ch := range sent {
			close(ch) // a client waiting for a message leaves
		}
	}()
	k, dim, rows := len(p.Clients), p.Net.In, p.Clients[0].Data.Rows()
	ws := func() *tensor.Matrix { return tensor.New(batch, dim) }
	eps, z, zt, gradPred, x0, gradX0, combined, dz := ws(), ws(), ws(), ws(), ws(), ws(), ws(), ws()
	ts, sqab, sq1ab, losses := make([]int, batch), make([]float64, batch), make([]float64, batch), make([]float64, k)
	got, x0Parts, dzParts := make([]*tensor.Matrix, k), make([]*tensor.Matrix, k), make([]*tensor.Matrix, k)
	for ci, c := range p.Clients {
		x0Parts[ci] = tensor.New(batch, c.LatentDim())
		dzParts[ci] = tensor.New(batch, c.LatentDim())
	}
	rng := rand.New(rand.NewSource(0))
	tail := iters - max(1, iters/10)
	var tailLoss float64
	for it := 0; it < iters; it++ {
		t0 := p.Rec.Now()
		// The iteration's draws, before the activations arrive: the clients'
		// batch rows, then the timesteps and the noise.
		derivedRng(rng, p.Cfg.Seed, e2eIterSalt, it)
		for range batch {
			rng.Intn(rows)
		}
		p.gauss.SampleTimestepsInto(rng, ts)
		eps.Randn(rng, 1)

		// Collect, noise, predict, estimate x0, send down.
		if err := p.gather(KindActivation, reports, got, nil); err != nil {
			return 0, err
		}
		p.gauss.QSampleInto(zt, tensor.HStackInto(z, got...), ts, eps)
		pred := p.Net.Forward(zt, ts, true)
		lossG := nn.MSELossInto(pred, eps, gradPred)
		// x0 estimate: (z_t - sqrt(1-ᾱ)·ε̂)/sqrt(ᾱ), per-row coefficients.
		for i := 0; i < batch; i++ {
			ab := p.gauss.S.AlphaBar[ts[i]]
			sqab[i] = math.Sqrt(ab)
			sq1ab[i] = math.Sqrt(1 - ab)
			zr, pr, xr := zt.Row(i), pred.Row(i), x0.Row(i)
			for j := range xr {
				xr[j] = (zr[j] - sq1ab[i]*pr[j]) / sqab[i]
			}
		}
		if err := p.scatter(KindDenoised, x0, x0Parts, sent); err != nil {
			return 0, err
		}

		// Exact joint backward. The x0 estimate contributes to the
		// backbone's output gradient (−sqrt(1−ᾱ)/sqrt(ᾱ) per row) and
		// directly to dz_t (1/sqrt(ᾱ)); dz = dz_t·sqrt(ᾱ) folds to
		// net-input-grad·sqrt(ᾱ) + gradX0.
		if err := p.gather(KindGradUp, reports, got, losses); err != nil {
			return 0, err
		}
		var lossAE float64
		for _, l := range losses {
			lossAE += l
		}
		lossAE /= float64(k)
		tensor.HStackInto(gradX0, got...)
		tensor.CopyInto(combined, gradPred)
		for i := 0; i < batch; i++ {
			coef := -sq1ab[i] / sqab[i]
			cr, gr := combined.Row(i), gradX0.Row(i)
			for j := range cr {
				cr[j] += coef * gr[j]
			}
		}
		dzt := p.Net.BackwardInput(combined)
		for i := 0; i < batch; i++ {
			dr, tr, gr := dz.Row(i), dzt.Row(i), gradX0.Row(i)
			for j := range dr {
				dr[j] = tr[j]*sqab[i] + gr[j]
			}
		}
		err := p.scatter(KindGradDown, dz, dzParts, sent)
		// The backbone's weight gradients and step, while the clients run
		// their encoder backward and their next encode.
		p.Net.TakeGrads()
		if err != nil {
			return 0, err
		}
		p.opt.Step()

		loss := lossG + lossAE
		if p.Rec != nil {
			p.Rec.TrainStep("e2e", loss, batch, p.Rec.Since(t0))
		}
		if it >= tail {
			tailLoss += loss
		}
	}
	if iters == 0 {
		return 0, nil
	}
	return tailLoss / float64(iters-tail), nil
}

// gather receives one message of kind from every client into got, indexed by
// sender, each Recv after a client's report that it sent; with losses
// non-nil, the reports' losses land there by client.
func (p *E2EPipeline) gather(kind Kind, reports <-chan e2eReport, got []*tensor.Matrix, losses []float64) error {
	clear(got)
	for range got {
		r := <-reports
		if r.err != nil {
			return errPartyLeft
		}
		if losses != nil {
			losses[r.client] = r.loss
		}
		env, err := p.Bus.Recv(p.Coord.ID)
		if err == nil {
			err = e2eCheck(env, kind, "")
		}
		if err != nil {
			return err
		}
		ci, err := p.index.of(env.From)
		if err != nil {
			return err
		}
		if got[ci] != nil {
			return fmt.Errorf("silo: e2e %s from %s twice in one iteration", kind, env.From)
		}
		got[ci] = env.Payload
	}
	return nil
}

// scatter sends each client its columns of m, copied into parts, and tells
// it on sent once the Send has returned.
func (p *E2EPipeline) scatter(kind Kind, m *tensor.Matrix, parts []*tensor.Matrix, sent []chan struct{}) error {
	off := 0
	for ci, c := range p.Clients {
		part := m.SliceColsInto(parts[ci], off)
		off += part.Cols
		if err := p.Bus.Send(&Envelope{From: p.Coord.ID, To: c.ID, Kind: kind, Payload: part}); err != nil {
			return err
		}
		sent[ci] <- struct{}{}
	}
	return nil
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
	z := p.gauss.Sample(p.rng, netPredictor{p.Net}, n, p.Net.In, p.Cfg.SynthSteps, 0)
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
