package silo

import (
	"fmt"
	"io"
	"math"

	"silofuse/internal/diffusion"
	"silofuse/internal/nn"
)

// kindStacked is the stacked pipeline's checkpoint kind (nn/checkpoint.go's
// header byte), the one kind a silo checkpoint has.
const kindStacked byte = 'S'

// SaveState writes the trained pipeline state (client autoencoders,
// coordinator backbone, latent scaler) to w. The pipeline must have been
// trained.
func (p *Pipeline) SaveState(w io.Writer) error {
	if p.Coord.Model == nil {
		return fmt.Errorf("silo: SaveState before training")
	}
	return p.state(nn.NewCheckpointWriter(w, kindStacked))
}

// LoadState restores state written by SaveState into a pipeline built with
// the same configuration and training table (the table supplies the schema
// and the featuriser statistics baked into each client's architecture).
func (p *Pipeline) LoadState(r io.Reader) error {
	return p.state(nn.NewCheckpointReader(r, kindStacked))
}

// state describes the stacked stream: a fixed preamble, the client
// autoencoder weights, the latent scaler unless whitening is off, and the
// backbone. The preamble is a `phase` record [3, 0] and a `loss` record
// [0, 0], which keeps every saved file byte for byte what it was when the
// format also held checkpoints from the middle of a run; a load refuses any
// other preamble. Every shape a load fills is the pipeline's own: the
// clients' latent widths and the configured backbone.
func (p *Pipeline) state(c *nn.Checkpoint) error {
	head, loss := []int{3, 0}, []float64{0, 0}
	c.Ints("phase", head)
	c.Tensor("loss", 1, 2, loss)
	if err := c.Err(); err != nil {
		return err
	}
	if head[0] != 3 || head[1] != 0 || math.Float64bits(loss[0])|math.Float64bits(loss[1]) != 0 {
		return fmt.Errorf("silo: %w: phase %d, latents %d, losses %v, %v: not a finished fit", nn.ErrCheckpoint, head[0], head[1], loss[0], loss[1])
	}
	for _, cl := range p.Clients {
		c.Params(cl.ID, cl.AE.Params())
	}
	if err := c.Err(); err != nil {
		return err
	}
	dims, total := make([]int, len(p.Clients)), 0
	for i, cl := range p.Clients {
		dims[i] = cl.LatentDim()
		total += dims[i]
	}
	if c.Loading() {
		p.Coord.latentDims = dims // architecture, not stored: a wrong width fails in c<i>/…
		cfg := p.Cfg.Diff
		cfg.Dim = total
		p.Coord.Model = diffusion.NewModel(p.Coord.rng, cfg)
		if !p.Coord.DisableWhitening {
			p.Coord.latMean, p.Coord.latStd = make([]float64, total), make([]float64, total)
		}
	}
	if !p.Coord.DisableWhitening {
		c.Tensor("latent.mean", 1, len(p.Coord.latMean), p.Coord.latMean)
		c.Tensor("latent.std", 1, len(p.Coord.latStd), p.Coord.latStd)
	}
	c.Params("backbone", p.Coord.Model.Net.Params())
	return c.Close()
}
