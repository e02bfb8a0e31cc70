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

	bus  silo.Bus
	wire *silo.CodecBus
	pipe *silo.Pipeline
}

// validComputePrecision rejects anything but the two supported compute
// tiers, so a typo fails loudly at Fit instead of silently running f64.
func validComputePrecision(p string) error {
	switch p {
	case "", "f64", "f32":
		return nil
	}
	return fmt.Errorf("unknown compute precision %q (want f64 or f32)", p)
}

// chaosBus builds the training transport for opts: a LocalBus, optionally
// wrapped — when a chaos profile is configured — in a seeded ChaosBus
// (fault injection) and a ResilientBus (retries, dedup, checksums), and
// always topped by a CodecBus framing dense tensor payloads through the
// configured wire codec (f64 by default, which is bit-lossless; a tensor
// that repeats rows goes as a row dictionary, smaller than its native
// frame). The returned ChaosBus is non-nil only under a chaos profile; it
// is needed for crash recovery (Revive). The CodecBus is returned for its
// per-kind bytes-vs-error report.
func chaosBus(opts Options) (silo.Bus, *silo.ChaosBus, *silo.CodecBus, error) {
	id, err := codec.ByName(opts.WireCodec)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := validComputePrecision(opts.ComputePrecision); err != nil {
		return nil, nil, nil, err
	}
	var bus silo.Bus = silo.NewLocalBus()
	var cb *silo.ChaosBus
	if opts.ChaosProfile != "" && opts.ChaosProfile != "none" {
		prof, err := silo.ChaosProfileByName(opts.ChaosProfile)
		if err != nil {
			return nil, nil, nil, err
		}
		cb = silo.NewChaosBus(bus, opts.ChaosSeed, prof)
		bus = silo.NewResilientBus(cb, silo.DefaultResilientConfig())
	}
	wire := silo.NewCodecBus(bus, id)
	return wire, cb, wire, nil
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
// With a chaos profile configured the bus injects faults and training runs
// with phase-level recovery (reviving crashed peers between attempts).
func (s *SiloFuse) Fit(train *tabular.Table) error {
	bus, cb, wire, err := chaosBus(s.Opts)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	s.bus = bus
	s.wire = wire
	pipe, err := silo.NewPipeline(s.bus, train, s.pipelineConfig())
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	pipe.SetRecorder(s.Opts.Recorder)
	s.pipe = pipe
	if cb != nil {
		rc := silo.RecoveryConfig{OnPeerDead: func(peer string) error {
			cb.Revive(peer)
			return nil
		}}
		if _, _, _, err := pipe.TrainStackedResilient(rc); err != nil {
			return fmt.Errorf("%s: train: %w", s.name, err)
		}
		return nil
	}
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
	return s.pipe.SynthesizeShared(0, n, s.Opts.DecodeSampling)
}

// SamplePartitioned draws n rows but keeps the result vertically
// partitioned per client — the paper's strong-privacy synthesis mode.
func (s *SiloFuse) SamplePartitioned(n int) ([]*tabular.Table, error) {
	if s.pipe == nil {
		return nil, fmt.Errorf("%s: SamplePartitioned before Fit", s.name)
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
	if s.wire == nil {
		return nil
	}
	return s.wire.WireReport()
}

// SetSynthSteps changes the number of inference denoising steps after
// fitting (used by the Table VII privacy-sensitivity sweep).
func (s *SiloFuse) SetSynthSteps(steps int) {
	s.Opts.SynthSteps = steps
	if s.pipe != nil {
		s.pipe.Cfg.SynthSteps = steps
	}
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
	id, err := codec.ByName(s.Opts.WireCodec)
	if err != nil {
		return fmt.Errorf("%s: %w", s.name, err)
	}
	// Restored models synthesize fault-free; the codec layer still frames
	// synthesis traffic so byte accounting matches a trained instance.
	s.wire = silo.NewCodecBus(silo.NewLocalBus(), id)
	s.bus = s.wire
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
