package core

import (
	"fmt"
	"io"

	"silofuse/internal/autoencoder"
	"silofuse/internal/diffusion"
	"silofuse/internal/silo"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tabular"
)

// SiloFuse is the paper's contribution: stacked distributed training of
// per-client tabular autoencoders and a coordinator-side latent Gaussian
// DDPM, with synthesis that can stay vertically partitioned. It is also the
// basis of the LatentDiff baseline (the single-client centralized variant).
type SiloFuse struct {
	Opts Options
	name string

	bus  *silo.CodecBus
	pipe *silo.Pipeline
}

// transport builds the in-process bus a model trains and samples over: a
// LocalBus topped by a CodecBus framing dense tensor payloads through the
// configured wire codec (f64 by default, which is bit-lossless; a tensor
// that repeats rows goes as a row dictionary, smaller than its native
// frame), kept for its per-kind bytes-vs-error report. Fit and Load both
// build it here, so both refuse an unknown wire codec or compute precision
// instead of silently running f64.
func transport(opts Options) (*silo.CodecBus, error) {
	id, err := codec.ByName(opts.WireCodec)
	if err != nil {
		return nil, err
	}
	switch opts.ComputePrecision {
	case "", "f64", "f32":
	default:
		return nil, fmt.Errorf("unknown compute precision %q (want f64 or f32)", opts.ComputePrecision)
	}
	return silo.NewCodecBus(silo.NewLocalBus(), id), nil
}

// NewSiloFuse builds the distributed model over Opts.Clients silos.
func NewSiloFuse(opts Options) *SiloFuse {
	if opts.Clients < 1 {
		opts.Clients = 1
	}
	return &SiloFuse{Opts: opts, name: "SiloFuse"}
}

// NewLatentDiff builds the centralized latent diffusion baseline: the same
// architecture with all features in one silo and full-width autoencoders.
func NewLatentDiff(opts Options) *SiloFuse {
	opts.Clients = 1
	opts.Permutation = nil
	opts.SplitWidths = false
	s := NewSiloFuse(opts)
	s.name = "LatentDiff"
	return s
}

// Name implements Synthesizer.
func (s *SiloFuse) Name() string { return s.name }

// pipelineConfig translates Options into the silo pipeline configuration.
func (s *SiloFuse) pipelineConfig() silo.PipelineConfig {
	return silo.PipelineConfig{
		Clients:     s.Opts.Clients,
		Permutation: s.Opts.Permutation,
		AE: autoencoder.Config{
			Hidden: s.Opts.AEHidden, Embed: s.Opts.AEEmbed, LR: s.Opts.LR,
			DecodePrecision: s.Opts.ComputePrecision,
		},
		Diff: diffusion.ModelConfig{
			Hidden: s.Opts.DiffHidden, Depth: s.Opts.DiffDepth,
			TimeDim: s.Opts.DiffTimeDim, T: s.Opts.T, LR: s.Opts.LR, Dropout: 0.01,
			EMADecay: s.Opts.EMADecay, CosineSch: s.Opts.CosineSchedule,
			Precision: s.Opts.ComputePrecision,
		},
		DisableLatentWhitening: s.Opts.DisableLatentWhitening,
		LatentNoiseStd:         s.Opts.LatentNoiseStd,
		AEIters:                s.Opts.AEIters,
		DiffIters:              s.Opts.DiffIters,
		Batch:                  s.Opts.Batch,
		SynthSteps:             s.Opts.SynthSteps,
		Seed:                   s.Opts.Seed,
		SplitWidths:            s.Opts.SplitWidths,
	}
}

// Fit implements Synthesizer: it runs Algorithm 1 over an in-process bus.
func (s *SiloFuse) Fit(train *tabular.Table) error {
	bus, err := transport(s.Opts)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	s.bus = bus
	pipe, err := silo.NewPipeline(s.bus, train, s.pipelineConfig())
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	pipe.SetRecorder(s.Opts.Recorder)
	s.pipe = pipe
	if _, _, err := pipe.TrainStacked(); err != nil {
		return fmt.Errorf("%s: train: %w", s.name, err)
	}
	return nil
}

// Sample implements Synthesizer using the share-post-generation mode.
func (s *SiloFuse) Sample(n int) (*tabular.Table, error) {
	if s.pipe == nil {
		return nil, fmt.Errorf("%s: Sample before Fit", s.name)
	}
	if err := checkRows(s.name, n); err != nil {
		return nil, err
	}
	return s.pipe.SynthesizeShared(0, n, s.Opts.DecodeSampling)
}

// SamplePartitioned draws n rows but keeps the result vertically
// partitioned per client — the paper's strong-privacy synthesis mode.
func (s *SiloFuse) SamplePartitioned(n int) ([]*tabular.Table, error) {
	if s.pipe == nil {
		return nil, fmt.Errorf("%s: SamplePartitioned before Fit", s.name)
	}
	if err := checkRows(s.name, n); err != nil {
		return nil, err
	}
	return s.pipe.SynthesizePartitioned(0, n, s.Opts.DecodeSampling)
}

// CommStats returns the transport statistics accumulated so far.
func (s *SiloFuse) CommStats() silo.Stats {
	if s.bus == nil {
		return silo.Stats{}
	}
	return s.bus.Stats()
}

// WireReport returns the per-kind bytes-vs-error accounting of the wire
// codec layer (nil before Fit).
func (s *SiloFuse) WireReport() map[string]silo.WireKindStats {
	if s.bus == nil {
		return nil
	}
	return s.bus.WireReport()
}

// Save persists the trained model state (all client autoencoders, the
// coordinator backbone and latent scaler) to w.
func (s *SiloFuse) Save(w io.Writer) error {
	if s.pipe == nil {
		return fmt.Errorf("%s: Save before Fit", s.name)
	}
	return s.pipe.SaveState(w)
}

// Load restores state written by Save. It requires the original training
// table (which supplies the schema and the featuriser statistics the
// architectures were built with) and the same Options.
func (s *SiloFuse) Load(train *tabular.Table, r io.Reader) error {
	bus, err := transport(s.Opts)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	s.bus = bus
	pipe, err := silo.NewPipeline(s.bus, train, s.pipelineConfig())
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	if err := pipe.LoadState(r); err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	pipe.SetRecorder(s.Opts.Recorder)
	s.pipe = pipe
	return nil
}
