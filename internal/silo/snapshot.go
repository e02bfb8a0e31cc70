package silo

import (
	"fmt"
	"io"

	"silofuse/internal/diffusion"
	"silofuse/internal/nn"
	"silofuse/internal/tensor"
)

// kindStacked is the stacked pipeline's checkpoint kind (nn/checkpoint.go's
// header byte), the one kind a silo checkpoint has.
const kindStacked byte = 'S'

// SaveState writes the trained pipeline state (client autoencoders,
// coordinator backbone, latent scaler) to w: a PhaseDiffusion checkpoint
// without the training latents. The pipeline must have been trained.
func (p *Pipeline) SaveState(w io.Writer) error {
	return p.SaveCheckpoint(w, &Checkpoint{Phase: PhaseDiffusion})
}

// LoadState restores state written by SaveState into a pipeline built with
// the same configuration and training table (the table supplies the schema
// and the featuriser statistics baked into each client's architecture).
func (p *Pipeline) LoadState(r io.Reader) error {
	ck, err := p.LoadCheckpoint(r)
	if err == nil && ck.Phase != PhaseDiffusion {
		err = fmt.Errorf("silo: %w: training stopped after phase %d", nn.ErrCheckpoint, ck.Phase)
	}
	return err
}

// SaveCheckpoint streams a mid-training checkpoint to w. A checkpoint
// written after any phase lets a restarted process resume with
// LoadCheckpoint and TrainStackedFrom without redoing the completed phases.
func (p *Pipeline) SaveCheckpoint(w io.Writer, ck *Checkpoint) error {
	if ck == nil {
		return fmt.Errorf("silo: nil checkpoint")
	}
	if ck.Phase >= PhaseDiffusion && p.Coord.Model == nil {
		return fmt.Errorf("silo: SaveState before training")
	}
	return p.checkpoint(nn.NewCheckpointWriter(w, kindStacked), ck)
}

// LoadCheckpoint restores a checkpoint written by SaveCheckpoint into a
// pipeline built with the same configuration and training table, returning
// the Checkpoint to hand to TrainStackedFrom.
func (p *Pipeline) LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ck := &Checkpoint{}
	if err := p.checkpoint(nn.NewCheckpointReader(r, kindStacked), ck); err != nil {
		return nil, err
	}
	return ck, nil
}

// checkpoint describes a stacked checkpoint: the phase reached and the phase
// losses; the client autoencoder weights from PhaseAE on; the collected
// latents when ck holds them; the latent scaler and the backbone once
// training completed. Every shape a load fills is the pipeline's own: the
// clients' latent widths, the training table's row count, the configured
// backbone.
func (p *Pipeline) checkpoint(c *nn.Checkpoint, ck *Checkpoint) error {
	head := []int{int(ck.Phase), 0}
	if ck.Phase >= PhaseLatents && ck.latents != nil {
		head[1] = 1
	}
	loss := []float64{ck.AELoss, ck.DiffLoss}
	c.Ints("phase", head)
	c.Tensor("loss", 1, 2, loss)
	if err := c.Err(); err != nil {
		return err
	}
	ck.Phase, ck.AELoss, ck.DiffLoss = TrainPhase(head[0]), loss[0], loss[1]
	if ck.Phase < PhaseNone || ck.Phase > PhaseDiffusion || head[1] < 0 || head[1] > 1 || (head[1] == 1 && ck.Phase < PhaseLatents) {
		return fmt.Errorf("silo: %w: phase %d, latents %d", nn.ErrCheckpoint, head[0], head[1])
	}
	if ck.Phase >= PhaseAE {
		for _, cl := range p.Clients {
			c.Params(cl.ID, cl.AE.Params())
		}
	}
	dims, total := make([]int, len(p.Clients)), 0
	for i, cl := range p.Clients {
		dims[i] = cl.LatentDim()
		total += dims[i]
	}
	if c.Loading() {
		p.Coord.latentDims = dims // architecture, not stored: a wrong width fails in c<i>/…
	}
	if head[1] == 1 && c.Err() == nil {
		if c.Loading() {
			ck.latents = tensor.New(p.Clients[0].Data.Rows(), total)
		}
		c.Tensor("latents", ck.latents.Rows, ck.latents.Cols, ck.latents.Data)
	}
	if ck.Phase >= PhaseDiffusion && c.Err() == nil {
		if c.Loading() {
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
	}
	return c.Close()
}
