package autoencoder

import (
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// The methods below expose the encoder and decoder halves separately for
// split (end-to-end distributed) training, where the diffusion backbone sits
// between them on another party. Call order per iteration must be:
// ForwardEncode → DecoderLossGrad → TakeDecoderGrads → BackwardEncoder →
// Step, with TakeDecoderGrads anywhere after DecoderLossGrad and before Step.

// ForwardEncode runs the encoder on a raw batch, caching activations for a
// later BackwardEncoder call.
func (a *Autoencoder) ForwardEncode(batch *tabular.Table, train bool) *tensor.Matrix {
	return a.encoder.Forward(batch.Data, train)
}

// DecoderLossGrad runs the decoder on latents z, computes the
// reconstruction NLL against batch, and returns the loss together with
// dLoss/dz. The decoder's parameter gradients are left pending for
// TakeDecoderGrads, so a caller can send dLoss/dz on first; they read z,
// which must stay unchanged until then.
func (a *Autoencoder) DecoderLossGrad(z *tensor.Matrix, batch *tabular.Table, train bool) (float64, *tensor.Matrix) {
	out := a.decoder.Forward(z, train)
	loss, grad := a.reconstructionLoss(out, batch)
	return loss, a.decoder.BackwardInput(grad)
}

// TakeDecoderGrads accumulates the decoder parameter gradients the last
// DecoderLossGrad left pending.
func (a *Autoencoder) TakeDecoderGrads() { a.decoder.TakeGrads() }

// BackwardEncoder propagates a latent gradient through the encoder,
// accumulating its parameter gradients.
func (a *Autoencoder) BackwardEncoder(gradZ *tensor.Matrix) {
	a.encoder.BackwardParams(gradZ)
}

// Step applies the optimiser to all accumulated gradients.
func (a *Autoencoder) Step() { a.opt.Step() }
