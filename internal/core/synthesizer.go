// Package core contains the paper's primary contribution — the SiloFuse
// cross-silo latent diffusion synthesizer — together with the six baselines
// of the evaluation (LatentDiff, TabDDPM, E2E, E2EDistr, GAN(linear),
// GAN(conv)), all behind one Synthesizer interface so the benchmark
// framework treats them uniformly.
package core

import (
	"fmt"

	"silofuse/internal/obs"
	"silofuse/internal/tabular"
)

// Synthesizer is a tabular generative model: fit on real data, then sample
// synthetic tables with the same schema.
type Synthesizer interface {
	// Name returns the model's display name as used in the paper's tables.
	Name() string
	// Fit trains the model on the given table.
	Fit(train *tabular.Table) error
	// Sample draws n synthetic rows.
	Sample(n int) (*tabular.Table, error)
}

// Options carries the shared hyper-parameters of all models. The zero value
// is not usable; start from DefaultOptions. The paper's full-scale settings
// (hidden 1024, embed 32, batch 512, 500k iterations, T=200, 25 inference
// steps, 4 clients) are reachable by overriding fields; defaults are scaled
// for CPU-only runs.
type Options struct {
	// Distribution settings (used by SiloFuse / E2EDistr).
	Clients     int
	Permutation []int // optional feature permutation before partitioning
	SplitWidths bool  // divide AE widths evenly across clients (paper setup)

	Seed  int64
	Batch int

	// Autoencoder settings.
	AEHidden int
	AEEmbed  int
	AEIters  int

	// Diffusion settings.
	DiffHidden  int
	DiffDepth   int
	DiffTimeDim int
	T           int // training timesteps
	SynthSteps  int // inference denoising steps
	DiffIters   int
	// EMADecay > 0 samples with exponentially averaged backbone weights.
	EMADecay float64
	// CosineSchedule switches the diffusion variance schedule from linear
	// to cosine.
	CosineSchedule bool
	// DisableLatentWhitening turns off the coordinator's per-dimension
	// latent standardisation (ablation: the diffusion prior then mismatches
	// the latent scale).
	DisableLatentWhitening bool
	// LatentNoiseStd adds Gaussian noise to uploaded latents before they
	// reach the coordinator — a differential-privacy style knob.
	LatentNoiseStd float64

	// GAN settings.
	GANIters  int
	GANHidden int
	GANLatent int

	LR float64
	// DecodeSampling draws from the decoder output heads instead of taking
	// the mean / arg-max, adding sample diversity.
	DecodeSampling bool

	// Recorder, when non-nil, receives per-step training telemetry, phase
	// spans and transport message telemetry from the fitted model (see
	// internal/obs). nil disables telemetry at near-zero cost.
	Recorder *obs.Recorder

	// WireCodec selects the precision tier framing dense tensor payloads on
	// the bus (see internal/silo/codec): "" or "f64" (lossless, default —
	// bit-identical accounting and results), "f32" (half the payload bytes,
	// round-to-nearest), "q8" (per-column int8 quantization, roughly a
	// quarter of the payload bytes). The per-kind bytes-vs-error accounting
	// lands in the wire_* metrics and WireReport.
	WireCodec string
	// ComputePrecision selects the kernel precision on compute paths where
	// bit-exactness is not contracted (the sampling/denoise ping-pong and
	// the decode-side autoencoder forward): "" or "f64" (default,
	// bit-identical) or "f32" (float32 kernels, ~2x memory bandwidth).
	// Training always runs in float64.
	ComputePrecision string
}

// DefaultOptions returns CPU-scaled settings that preserve the paper's
// architecture shape.
func DefaultOptions() Options {
	return Options{
		Clients:        4,
		Seed:           1,
		Batch:          256,
		AEHidden:       256,
		AEEmbed:        32,
		AEIters:        1500,
		DiffHidden:     256,
		DiffDepth:      4,
		DiffTimeDim:    32,
		T:              200,
		SynthSteps:     25,
		DiffIters:      2500,
		GANIters:       1500,
		GANHidden:      128,
		GANLatent:      32,
		LR:             1e-3,
		DecodeSampling: true,
	}
}

// FastOptions returns heavily reduced settings for tests and testing.B
// benchmarks; rankings remain stable but absolute quality is lower.
func FastOptions() Options {
	o := DefaultOptions()
	o.Batch = 128
	o.AEHidden = 64
	o.AEEmbed = 16
	o.AEIters = 300
	o.DiffHidden = 64
	o.DiffDepth = 3
	o.T = 100
	o.SynthSteps = 15
	o.DiffIters = 500
	o.GANIters = 400
	o.GANHidden = 64
	return o
}

// checkRows refuses a negative row count, before a model draws or sends
// anything.
func checkRows(model string, n int) error {
	if n < 0 {
		return fmt.Errorf("%s: cannot sample %d rows", model, n)
	}
	return nil
}

// ModelNames lists the registry names in the paper's table order.
func ModelNames() []string {
	return []string{"gan-conv", "gan-linear", "e2e", "e2edistr", "tabddpm", "latentdiff", "silofuse"}
}

// New constructs a synthesizer by registry name.
func New(name string, opts Options) (Synthesizer, error) {
	switch name {
	case "silofuse":
		return NewSiloFuse(opts), nil
	case "latentdiff":
		return NewLatentDiff(opts), nil
	case "tabddpm":
		return NewTabDDPM(opts), nil
	case "e2e":
		return NewE2E(opts), nil
	case "e2edistr":
		return NewE2EDistr(opts), nil
	case "gan-linear":
		return NewGANLinear(opts), nil
	case "gan-conv":
		return NewGANConv(opts), nil
	default:
		return nil, fmt.Errorf("core: unknown synthesizer %q", name)
	}
}
