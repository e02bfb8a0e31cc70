package silo

import (
	"fmt"
	"math/rand"

	"silofuse/internal/autoencoder"
	"silofuse/internal/obs"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// Client is one silo: it owns a vertical feature partition X_i and a
// private autoencoder (E_i, D_i). The raw features and the decoder never
// leave the client.
type Client struct {
	ID   string
	Data *tabular.Table
	AE   *autoencoder.Autoencoder
	// Rec, when non-nil, is this client's own trace lane: local training and
	// decoding record spans on it. Give each client a distinct recorder
	// (obs.NewPartyRecorder) — clients run concurrently, so sharing one
	// tracer between them would interleave their span stacks.
	Rec *obs.Recorder
	rng *rand.Rand
}

// NewClient creates a client for its local partition. The autoencoder's
// latent width defaults to the local feature count (the paper sets the
// total latent size to the raw feature count, split per client).
func NewClient(id string, data *tabular.Table, cfg autoencoder.Config, seed int64) *Client {
	rng := rand.New(rand.NewSource(seed))
	if cfg.Latent <= 0 {
		cfg.Latent = data.Schema.NumColumns()
	}
	return &Client{ID: id, Data: data, AE: autoencoder.New(rng, data, cfg), rng: rng}
}

// TrainLocal runs the client's autoencoder training (Algorithm 1 lines
// 1-7), entirely on-premise: no messages are exchanged. The phase is the
// whole run, so the training state goes when it returns: calling it again
// trains the weights further with a fresh optimiser.
func (c *Client) TrainLocal(iters, batch int) float64 {
	span := c.Rec.StartSpan("ae-train-local")
	span.SetAttr("client", c.ID)
	span.SetAttr("iters", iters)
	loss := c.AE.Train(c.Data, iters, batch)
	c.AE.ReleaseTraining()
	span.SetAttr("loss", loss)
	span.End()
	return loss
}

// LatentDim returns the client's latent contribution s_i.
func (c *Client) LatentDim() int { return c.AE.LatentDim() }

// EncodeLocal computes Z_i = E_i(X_i) for the full local partition.
func (c *Client) EncodeLocal() *tensor.Matrix { return c.AE.Encode(c.Data) }

// UploadLatents encodes the local partition and sends the latents to the
// coordinator over bus — the single communication round of stacked
// training (Algorithm 1 lines 8-11). noiseStd > 0 adds Gaussian
// perturbation to every latent before upload (the differential-privacy
// style knob the paper discusses as a privacy/quality trade-off).
func (c *Client) UploadLatents(bus Bus, coordinator string, noiseStd float64) error {
	z := c.EncodeLocal()
	c.AE.ReleaseTraining() // the encoder has run for the last time; synthesis only decodes
	if noiseStd > 0 {
		for i := range z.Data {
			z.Data[i] += noiseStd * c.rng.NormFloat64()
		}
	}
	return bus.Send(&Envelope{From: c.ID, To: coordinator, Kind: KindLatents, Payload: z})
}

// DecodeLatents converts a partition of synthetic latents into the data
// space using the private decoder (Algorithm 2 line 7).
func (c *Client) DecodeLatents(z *tensor.Matrix, sample bool) (*tabular.Table, error) {
	span := c.Rec.StartSpan("decode-local")
	span.SetAttr("client", c.ID)
	span.SetAttr("rows", z.Rows)
	defer span.End()
	t, err := c.AE.Decode(z, sample, c.rng)
	if err != nil {
		return nil, fmt.Errorf("silo: client %s decode: %w", c.ID, err)
	}
	return t, nil
}
