package silo

import (
	"fmt"
	"runtime"
	"sync"

	"silofuse/internal/autoencoder"
	"silofuse/internal/diffusion"
	"silofuse/internal/obs"
	"silofuse/internal/tabular"
)

// PipelineConfig configures a cross-silo training pipeline.
type PipelineConfig struct {
	Clients     int
	Permutation []int // optional feature permutation before partitioning
	AE          autoencoder.Config
	Diff        diffusion.ModelConfig // Dim is overridden with the latent width
	AEIters     int
	DiffIters   int
	Batch       int
	SynthSteps  int // inference denoising steps (paper: 25)
	Seed        int64
	// SplitWidths divides the autoencoder hidden/embed widths evenly across
	// clients, as the paper does with its centralized 1024/32 budget.
	SplitWidths bool
	// DisableLatentWhitening turns off the coordinator's per-dimension
	// latent standardisation (ablation switch).
	DisableLatentWhitening bool
	// LatentNoiseStd adds Gaussian noise to uploaded latents — a
	// differential-privacy style knob trading quality for obfuscation.
	LatentNoiseStd float64
}

// Pipeline wires M clients and a coordinator over a Bus and runs the
// stacked training (Algorithm 1) and distributed synthesis (Algorithm 2)
// protocols.
type Pipeline struct {
	Bus     Bus
	Schema  *tabular.Schema
	Parts   [][]int
	Clients []*Client
	Coord   *Coordinator
	Cfg     PipelineConfig
	// Rec, when non-nil, receives phase spans and per-step telemetry from
	// every actor in the pipeline. Set it with SetRecorder.
	Rec *obs.Recorder
}

// SetRecorder threads rec through the pipeline: phase spans on the pipeline
// itself, per-step telemetry on every client autoencoder and the
// coordinator's diffusion model, and per-message telemetry on the bus when
// the transport supports it. A nil rec switches everything off.
//
// Client.Rec is deliberately left nil here: per-client spans from parallel
// goroutines would garble a single tracer's B/E stack. Use SetPartyRecorders
// to give each silo its own trace lane.
func (p *Pipeline) SetRecorder(rec *obs.Recorder) {
	p.Rec = rec
	for _, c := range p.Clients {
		c.AE.Rec = rec
	}
	p.Coord.Rec = rec
	if rs, ok := p.Bus.(RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// SetPartyRecorders threads one recorder per party, the distributed-trace
// variant of SetRecorder: protocol phase spans and the coordinator's
// diffusion telemetry land on coord; each client's autoencoder telemetry and
// its local training span land on the matching clients[i]. Build the
// recorders with obs.NewPartyRecorder over one shared registry so metrics
// still aggregate, and give each party's transport its recorder separately
// (the pipeline's shared Bus handle is left untouched — per-party transports
// like TCPPeer own their telemetry).
func (p *Pipeline) SetPartyRecorders(coord *obs.Recorder, clients []*obs.Recorder) error {
	if len(clients) != len(p.Clients) {
		return fmt.Errorf("silo: %d client recorders for %d clients", len(clients), len(p.Clients))
	}
	p.Rec = coord
	p.Coord.Rec = coord
	for i, c := range p.Clients {
		c.Rec = clients[i]
		c.AE.Rec = clients[i]
	}
	return nil
}

// NewPipeline vertically partitions data across cfg.Clients silos and
// constructs the actors. The coordinator is a distinct actor named "coord";
// clients are "c0".."cM-1".
func NewPipeline(bus Bus, data *tabular.Table, cfg PipelineConfig) (*Pipeline, error) {
	parts, err := data.Schema.Partition(cfg.Clients, cfg.Permutation)
	if err != nil {
		return nil, err
	}
	silos := data.VerticalPartition(parts)
	names := make([]string, cfg.Clients)
	clients := make([]*Client, cfg.Clients)
	for i, local := range silos {
		names[i] = fmt.Sprintf("c%d", i)
		aeCfg := cfg.AE
		if cfg.SplitWidths {
			aeCfg.Hidden = maxInt(aeCfg.Hidden/cfg.Clients, 16)
			aeCfg.Embed = maxInt(aeCfg.Embed/cfg.Clients, 4)
		}
		aeCfg.Latent = local.Schema.NumColumns()
		clients[i] = NewClient(names[i], local, aeCfg, cfg.Seed+int64(i)*1000)
		// Clients train concurrently in the AE phase, so per-client global
		// MemStats windows would count each other's allocations; the phase
		// is measured once, at the pipeline level, in TrainStacked.
		clients[i].AE.SkipAllocStats = true
	}
	coord := NewCoordinator("coord", names, cfg.Seed+999_999)
	coord.DisableWhitening = cfg.DisableLatentWhitening
	return &Pipeline{
		Bus:     bus,
		Schema:  data.Schema,
		Parts:   parts,
		Clients: clients,
		Coord:   coord,
		Cfg:     cfg,
	}, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TrainStacked executes Algorithm 1 once, start to finish: parallel local
// autoencoder training, a single latent upload per client, then
// coordinator-local diffusion training. It returns the mean tail losses of
// both phases. A transport failure during the upload ends the run with the
// transport's error; a finished fit is persisted whole with SaveState.
func (p *Pipeline) TrainStacked() (aeLoss, diffLoss float64, err error) {
	// Phase 1: local autoencoder training, clients in parallel.
	span := p.Rec.StartSpan("ae-train")
	span.SetAttr("clients", len(p.Clients))
	span.SetAttr("iters", p.Cfg.AEIters)
	losses := make([]float64, len(p.Clients))
	// Allocation accounting brackets the whole parallel phase: a single
	// global MemStats window over all clients is deterministic, where
	// overlapping per-client windows are not (see SkipAllocStats).
	var ms0 runtime.MemStats
	if p.Rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	var wg sync.WaitGroup
	for i, c := range p.Clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			losses[i] = c.TrainLocal(p.Cfg.AEIters, p.Cfg.Batch)
		}(i, c)
	}
	wg.Wait()
	if p.Rec != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		p.Rec.TrainAllocs("ae", p.Cfg.AEIters*len(p.Clients), ms1.Mallocs-ms0.Mallocs)
	}
	for _, l := range losses {
		aeLoss += l
	}
	aeLoss /= float64(len(losses))
	span.SetAttr("loss", aeLoss)
	span.End()

	// Phase 2: single latent upload per client (the one communication round).
	ship := p.Rec.StartSpan("latent-ship")
	errs := make([]error, len(p.Clients))
	for i, c := range p.Clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			errs[i] = c.UploadLatents(p.Bus, p.Coord.ID, p.Cfg.LatentNoiseStd)
		}(i, c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			ship.End()
			return aeLoss, 0, e
		}
	}
	z, err := p.Coord.CollectLatents(p.Bus)
	if err != nil {
		ship.End()
		return aeLoss, 0, err
	}
	ship.SetAttr("rows", z.Rows)
	ship.SetAttr("width", z.Cols)
	ship.End()

	// Phase 3: coordinator-local diffusion training.
	dspan := p.Rec.StartSpan("diffusion-train")
	dspan.SetAttr("iters", p.Cfg.DiffIters)
	diffLoss = p.Coord.TrainDiffusion(z, p.Cfg.Diff, p.Cfg.DiffIters, p.Cfg.Batch)
	dspan.SetAttr("loss", diffLoss)
	dspan.End()
	return aeLoss, diffLoss, nil
}

// SynthesizePartitioned executes Algorithm 2: a requesting client triggers
// synthesis, the coordinator denoises fresh latents and distributes each
// partition, and every client decodes its own concurrently. The result stays
// vertically partitioned, in client order — the paper's strong-privacy mode.
func (p *Pipeline) SynthesizePartitioned(requester int, n int, sample bool) ([]*tabular.Table, error) {
	span := p.Rec.StartSpan("synthesis")
	span.SetAttr("rows", n)
	span.SetAttr("steps", p.Cfg.SynthSteps)
	defer span.End()
	if requester < 0 || requester >= len(p.Clients) {
		return nil, fmt.Errorf("silo: invalid requesting client %d", requester)
	}
	if n < 0 {
		return nil, fmt.Errorf("silo: cannot synthesize %d rows", n)
	}
	req := &Envelope{From: p.Clients[requester].ID, To: p.Coord.ID, Kind: KindSynthReq}
	if err := p.Bus.Send(req); err != nil {
		return nil, err
	}
	if env, err := p.Bus.Recv(p.Coord.ID); err != nil {
		return nil, err
	} else if env.Kind != KindSynthReq {
		return nil, fmt.Errorf("silo: coordinator expected synth request, got %q", env.Kind)
	}

	parts, err := p.Coord.SampleLatents(n, p.Cfg.SynthSteps)
	if err != nil {
		return nil, err
	}
	if err := p.Coord.DistributeLatents(p.Bus, parts); err != nil {
		return nil, err
	}

	out := make([]*tabular.Table, len(p.Clients))
	errs := make([]error, len(p.Clients))
	var wg sync.WaitGroup
	for i, c := range p.Clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			env, err := p.Bus.Recv(c.ID)
			if err != nil {
				errs[i] = err
				return
			}
			if env.Kind != KindSynthLatent {
				errs[i] = fmt.Errorf("silo: client %s expected synth latents, got %q", c.ID, env.Kind)
				return
			}
			out[i], errs[i] = c.DecodeLatents(env.Payload, sample)
		}(i, c)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	return out, nil
}

// SynthesizeShared runs SynthesizePartitioned and then joins the partitions
// back into one table in the original column order — the paper's
// share-post-generation mode whose privacy risk Section V-F quantifies.
func (p *Pipeline) SynthesizeShared(requester, n int, sample bool) (*tabular.Table, error) {
	parts, err := p.SynthesizePartitioned(requester, n, sample)
	if err != nil {
		return nil, err
	}
	return tabular.JoinVertical(p.Schema, p.Parts, parts)
}
