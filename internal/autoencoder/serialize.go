package autoencoder

import (
	"io"

	"silofuse/internal/nn"
)

// Save writes the encoder and decoder weights to w. The input featuriser
// statistics are not weights and are not saved: callers must rebuild the
// autoencoder from the same training table and configuration before Load.
func (a *Autoencoder) Save(w io.Writer) error {
	return nn.SaveParams(w, a.Params())
}

// Load restores weights written by Save into an autoencoder constructed
// with the same configuration and schema.
func (a *Autoencoder) Load(r io.Reader) error {
	return nn.LoadParams(r, a.Params())
}

// Params returns the encoder's parameters followed by the decoder's, the
// order Save writes them in.
func (a *Autoencoder) Params() []*nn.Param {
	return append(append([]*nn.Param{}, a.encoder.Params()...), a.decoder.Params()...)
}

// Training saves or loads the full mid-training state as one section of c —
// weights plus the Adam moments and step counter a *resumed optimiser* needs
// for joint training (E2EDistr) to continue bit-identically. A load zeroes
// the gradients a half-finished iteration left behind.
func (a *Autoencoder) Training(c *nn.Checkpoint, section string) {
	c.Params(section, a.Params())
	c.Adam(section, a.opt)
}
