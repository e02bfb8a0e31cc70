package autoencoder

import (
	"io"

	"silofuse/internal/nn"
)

// Save writes the encoder and decoder weights to w. The input featuriser
// statistics are part of the schema-derived architecture and are saved too
// via the parameter stream ordering; callers must rebuild the autoencoder
// with the same training table schema before Load.
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

// SaveTraining writes the full mid-training state — weights plus the Adam
// moment estimates and step counter — so joint training (E2EDistr) can
// resume from a checkpoint bit-identically. Save alone is enough for a
// finished model; a *resumed optimiser* also needs its momenta.
func (a *Autoencoder) SaveTraining(w io.Writer) error {
	if err := nn.SaveParams(w, a.Params()); err != nil {
		return err
	}
	return a.opt.Save(w)
}

// LoadTraining restores state written by SaveTraining and zeroes any
// accumulated gradients, discarding whatever a half-finished iteration left
// behind.
func (a *Autoencoder) LoadTraining(r io.Reader) error {
	if err := nn.LoadParams(r, a.Params()); err != nil {
		return err
	}
	return a.opt.Load(r)
}
