package silo

import (
	"fmt"
	"math"
	"math/rand"

	"silofuse/internal/diffusion"
	"silofuse/internal/obs"
	"silofuse/internal/tensor"
)

// Coordinator holds the generative diffusion backbone 𝒢. In the paper the
// role is played by client C1; here it is a separate actor for clarity —
// co-locating it with a client changes nothing in the protocol.
type Coordinator struct {
	ID    string
	Model *diffusion.Model
	// DisableWhitening skips latent standardisation (ablation switch).
	DisableWhitening bool
	// Rec, when non-nil, is forwarded to the diffusion model when it is
	// built, so per-step training telemetry flows to the same recorder.
	Rec *obs.Recorder
	rng *rand.Rand

	latentDims  []int
	clientOrder []string

	// Latent standardisation: the DDPM's forward process terminates at
	// N(0, I) and sampling starts there, so the coordinator whitens the
	// collected latents per dimension before training and colours samples
	// back afterwards.
	latMean, latStd []float64
}

// NewCoordinator creates a coordinator expecting latents from the given
// clients in order, with the diffusion model built lazily once the total
// latent width is known.
func NewCoordinator(id string, clients []string, seed int64) *Coordinator {
	return &Coordinator{ID: id, rng: rand.New(rand.NewSource(seed)), clientOrder: clients}
}

// CollectLatents receives one latents message per client from bus and
// concatenates them in client order (Z = Z1 || ... || ZM).
func (c *Coordinator) CollectLatents(bus Bus) (*tensor.Matrix, error) {
	byClient := make(map[string]*tensor.Matrix, len(c.clientOrder))
	for range c.clientOrder {
		env, err := bus.Recv(c.ID)
		if err != nil {
			return nil, err
		}
		if env.Kind != KindLatents {
			return nil, fmt.Errorf("silo: coordinator expected latents, got %q from %s", env.Kind, env.From)
		}
		if _, dup := byClient[env.From]; dup {
			return nil, fmt.Errorf("silo: duplicate latents from %s", env.From)
		}
		byClient[env.From] = env.Payload
	}
	parts := make([]*tensor.Matrix, len(c.clientOrder))
	c.latentDims = make([]int, len(c.clientOrder))
	for i, id := range c.clientOrder {
		z, ok := byClient[id]
		if !ok {
			return nil, fmt.Errorf("silo: missing latents from %s", id)
		}
		parts[i] = z
		c.latentDims[i] = z.Cols
	}
	return tensor.HStack(parts...), nil
}

// TrainDiffusion builds (if needed) and trains the backbone on the
// concatenated latents for iters steps (Algorithm 1 lines 12-17). cfg.Dim
// is overridden with the latent width; latents are whitened per dimension
// first so the diffusion prior matches the data scale. The phase is the whole
// run: when it returns the whitened copy and the model's training state are
// gone and the weights are the ones Sample reads and SaveState writes (the
// average, under EMADecay), so calling it again trains them further with a
// fresh optimiser.
func (c *Coordinator) TrainDiffusion(z *tensor.Matrix, cfg diffusion.ModelConfig, iters, batch int) float64 {
	zw := z
	if !c.DisableWhitening {
		c.fitLatentScaler(z)
		zw = c.whiten(z)
	}
	cfg.Dim = z.Cols
	if c.Model == nil {
		c.Model = diffusion.NewModel(c.rng, cfg)
	}
	c.Model.Rec = c.Rec
	loss := c.Model.Train(zw, iters, batch)
	c.Model.ReleaseTraining()
	return loss
}

// SampleLatents draws n synthetic latent rows with steps inference steps,
// colours them back to the training latent scale, and splits them into
// per-client partitions (Algorithm 2 lines 3-5).
func (c *Coordinator) SampleLatents(n, steps int) ([]*tensor.Matrix, error) {
	if c.Model == nil {
		return nil, fmt.Errorf("silo: coordinator has no trained model")
	}
	z := c.Model.Sample(n, steps)
	c.colour(z)
	return c.splitLatents(z)
}

// fitLatentScaler records per-dimension mean/std of the training latents.
func (c *Coordinator) fitLatentScaler(z *tensor.Matrix) {
	c.latMean = make([]float64, z.Cols)
	c.latStd = make([]float64, z.Cols)
	for j := 0; j < z.Cols; j++ {
		var mean, m2 float64
		for i := 0; i < z.Rows; i++ {
			mean += z.At(i, j)
		}
		mean /= float64(z.Rows)
		for i := 0; i < z.Rows; i++ {
			d := z.At(i, j) - mean
			m2 += d * d
		}
		std := math.Sqrt(m2 / float64(z.Rows))
		if std < 1e-9 {
			std = 1
		}
		c.latMean[j] = mean
		c.latStd[j] = std
	}
}

// LatentScaler returns the fitted per-dimension mean and std, nil unwhitened.
func (c *Coordinator) LatentScaler() (mean, std []float64) { return c.latMean, c.latStd }

// whiten returns (z - mean) / std as a new matrix.
func (c *Coordinator) whiten(z *tensor.Matrix) *tensor.Matrix {
	out := tensor.New(z.Rows, z.Cols)
	for i := 0; i < z.Rows; i++ {
		src, dst := z.Row(i), out.Row(i)
		for j := range dst {
			dst[j] = (src[j] - c.latMean[j]) / c.latStd[j]
		}
	}
	return out
}

// colour rescales whitened samples back to the latent scale, in place.
func (c *Coordinator) colour(z *tensor.Matrix) {
	if c.latMean == nil {
		return
	}
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)
		for j := range row {
			row[j] = row[j]*c.latStd[j] + c.latMean[j]
		}
	}
}

// splitLatents partitions a latent matrix by the recorded per-client dims.
func (c *Coordinator) splitLatents(z *tensor.Matrix) ([]*tensor.Matrix, error) {
	total := 0
	for _, d := range c.latentDims {
		total += d
	}
	if total != z.Cols {
		return nil, fmt.Errorf("silo: latent width %d does not match client dims (sum %d)", z.Cols, total)
	}
	out := make([]*tensor.Matrix, len(c.latentDims))
	off := 0
	for i, d := range c.latentDims {
		out[i] = z.SliceCols(off, off+d)
		off += d
	}
	return out, nil
}

// DistributeLatents sends each client its partition over bus.
func (c *Coordinator) DistributeLatents(bus Bus, parts []*tensor.Matrix) error {
	for i, id := range c.clientOrder {
		if err := bus.Send(&Envelope{From: c.ID, To: id, Kind: KindSynthLatent, Payload: parts[i]}); err != nil {
			return err
		}
	}
	return nil
}
