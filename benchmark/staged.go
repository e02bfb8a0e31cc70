package main

import (
	"math"
	"sync"
	"time"

	"silofuse/internal/core"
	"silofuse/internal/obs"
	"silofuse/internal/silo"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tabular"
)

// staged drives the stacked protocol stage by stage through the public
// functions of internal/silo — the calls core.SiloFuse.Fit and Sample make
// inside TrainStacked and SynthesizeShared — with a benchmark-owned span
// around each stage. The traced run checks that its weights, bytes and rows
// equal the public API's bit for bit, so the spans describe the same
// computation the end-to-end metrics time.
type staged struct {
	tr   *tracer
	bus  silo.Bus
	pipe *silo.Pipeline
	opts core.Options
}

// stagedFit replays Fit: construct, parallel autoencoder training, one
// latent upload per client, coordinator diffusion training.
func stagedFit(tr *tracer, rec *obs.Recorder, table *tabular.Table, opts core.Options) (*staged, opResult, error) {
	cfg := pipelineConfig(opts)
	res := opResult{rows: (cfg.Clients*cfg.AEIters + cfg.DiffIters) * cfg.Batch}
	id, err := codec.ByName(opts.WireCodec)
	if err != nil {
		return nil, res, err
	}
	t0 := time.Now()
	root := tr.start("fit", -1, 0)

	sp := tr.start("construct", root, 0)
	bus := silo.NewCodecBus(silo.NewLocalBus(), id)
	pipe, err := silo.NewPipeline(bus, table, cfg)
	if err != nil {
		return nil, res, err
	}
	pipe.SetRecorder(rec)
	tr.end(sp)
	s := &staged{tr: tr, bus: bus, pipe: pipe, opts: opts}

	ae := tr.start("ae_train", root, 0)
	var wg sync.WaitGroup
	for _, c := range pipe.Clients {
		wg.Add(1)
		go func(c *silo.Client) {
			defer wg.Done()
			sp := tr.start("ae_train."+c.ID, ae, 0)
			c.TrainLocal(cfg.AEIters, cfg.Batch)
			tr.end(sp)
		}(c)
	}
	wg.Wait()
	tr.end(ae)

	sp = tr.start("latent_ship", root, 0)
	errs := make([]error, len(pipe.Clients))
	for i, c := range pipe.Clients {
		wg.Add(1)
		go func(i int, c *silo.Client) {
			defer wg.Done()
			errs[i] = c.UploadLatents(bus, pipe.Coord.ID, cfg.LatentNoiseStd)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, res, err
		}
	}
	z, err := pipe.Coord.CollectLatents(bus)
	if err != nil {
		return nil, res, err
	}
	tr.end(sp)

	sp = tr.start("diffusion_train", root, 0)
	res.loss = pipe.Coord.TrainDiffusion(z, cfg.Diff, cfg.DiffIters, cfg.Batch)
	tr.end(sp)

	tr.end(root)
	res.wall = time.Since(t0)
	res.wire = bus.Stats().Bytes
	res.save = pipe.SaveState
	return s, res, nil
}

// request replays Sample(n): the synthesis request, latent sampling at the
// coordinator, distribution, parallel decode at the clients and the join.
func (s *staged) request(req, n int) (opResult, error) {
	p, tr := s.pipe, s.tr
	res := opResult{rows: n}
	before := s.bus.Stats().Bytes
	t0 := time.Now()
	root := tr.start("request", -1, req)

	sp := tr.start("synth_req", root, req)
	if err := s.bus.Send(&silo.Envelope{From: p.Clients[0].ID, To: p.Coord.ID, Kind: silo.KindSynthReq}); err != nil {
		return res, err
	}
	if _, err := s.bus.Recv(p.Coord.ID); err != nil {
		return res, err
	}
	tr.end(sp)

	sp = tr.start("sample_latents", root, req)
	parts, err := p.Coord.SampleLatents(n, p.Cfg.SynthSteps)
	if err != nil {
		return res, err
	}
	tr.end(sp)

	sp = tr.start("distribute", root, req)
	if err := p.Coord.DistributeLatents(s.bus, parts); err != nil {
		return res, err
	}
	tr.end(sp)

	dec := tr.start("decode", root, req)
	out := make([]*tabular.Table, len(p.Clients))
	errs := make([]error, len(p.Clients))
	var wg sync.WaitGroup
	for i, c := range p.Clients {
		wg.Add(1)
		go func(i int, c *silo.Client) {
			defer wg.Done()
			sp := tr.start("decode."+c.ID, dec, req)
			defer tr.end(sp)
			env, err := s.bus.Recv(c.ID)
			if err != nil {
				errs[i] = err
				return
			}
			out[i], errs[i] = c.DecodeLatents(env.Payload, s.opts.DecodeSampling)
		}(i, c)
	}
	wg.Wait()
	tr.end(dec)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	sp = tr.start("join", root, req)
	res.table, err = tabular.JoinVertical(p.Schema, p.Parts, out)
	if err != nil {
		return res, err
	}
	tr.end(sp)

	tr.end(root)
	res.wall = time.Since(t0)
	res.wire = s.bus.Stats().Bytes - before
	res.print = tableHash(res.table)
	return res, nil
}

// tracedE2E runs the E2EDistr fit over bus with a Recorder on the pipeline. E2EPipeline keeps its per-iteration
// exchange private, so the spans stop at construct / train / synthesize and
// the Recorder's step histogram supplies the per-iteration numbers. The
// Recorder is not attached to the TCP endpoints: a traced envelope carries
// a flow id on the wire, and the bytes must equal the untraced run's.
func tracedE2E(tr *tracer, rec *obs.Recorder, bus silo.Bus, table *tabular.Table, opts core.Options, iters int) (*silo.E2EPipeline, opResult, error) {
	res := opResult{rows: iters * opts.Batch}
	before := bus.Stats().Bytes
	t0 := time.Now()
	root := tr.start("fit", -1, 0)
	sp := tr.start("construct", root, 0)
	p, err := silo.NewE2EPipeline(bus, table, pipelineConfig(opts))
	if err != nil {
		return nil, res, err
	}
	p.SetRecorder(rec)
	tr.end(sp)
	sp = tr.start("e2e_train", root, 0)
	res.loss, err = p.Train(iters)
	if err != nil {
		return nil, res, err
	}
	tr.end(sp)
	tr.end(root)
	res.wall = time.Since(t0)
	res.wire = bus.Stats().Bytes - before
	res.print = math.Float64bits(res.loss)
	return p, res, nil
}

// tracedE2ERequest draws n rows from a trained E2E pipeline under a span.
func tracedE2ERequest(tr *tracer, p *silo.E2EPipeline, req, n int, sample bool) (opResult, error) {
	res := opResult{rows: n}
	before := p.Bus.Stats().Bytes
	t0 := time.Now()
	root := tr.start("request", -1, req)
	sp := tr.start("synthesize", root, req)
	var err error
	res.table, err = p.Synthesize(n, sample)
	if err != nil {
		return res, err
	}
	tr.end(sp)
	tr.end(root)
	res.wall = time.Since(t0)
	res.wire = p.Bus.Stats().Bytes - before
	res.print = tableHash(res.table)
	return res, nil
}

// kindBytes maps the per-layer byte metrics to the message kinds they sum.
var kindBytes = map[string][]silo.Kind{
	"silo.bus_bytes.latents":      {silo.KindLatents},
	"silo.bus_bytes.synth-req":    {silo.KindSynthReq},
	"silo.bus_bytes.synth-latent": {silo.KindSynthLatent},
	"silo.bus_bytes.e2e":          {silo.KindActivation, silo.KindDenoised, silo.KindGradUp, silo.KindGradDown},
}

// statsDelta subtracts an earlier snapshot of bus statistics.
func statsDelta(after, before silo.Stats) silo.Stats {
	d := silo.Stats{Messages: after.Messages - before.Messages, Bytes: after.Bytes - before.Bytes, ByKind: map[silo.Kind]int64{}}
	for k, v := range after.ByKind {
		if v != before.ByKind[k] {
			d.ByKind[k] = v - before.ByKind[k]
		}
	}
	return d
}
