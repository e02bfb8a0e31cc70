package core

import (
	"fmt"
	"math/rand"

	"silofuse/internal/gan"
	"silofuse/internal/tabular"
)

// GANModel wraps the centralized GAN baselines as Synthesizers.
type GANModel struct {
	Opts Options
	name string
	back gan.Backbone
	g    *gan.GAN
}

// NewGANLinear builds the CTGAN-flavoured baseline (paper's GAN(linear)).
func NewGANLinear(opts Options) *GANModel {
	return &GANModel{Opts: opts, name: "GAN(linear)", back: gan.Linear}
}

// NewGANConv builds the CTAB-GAN-flavoured baseline (paper's GAN(conv)).
func NewGANConv(opts Options) *GANModel {
	return &GANModel{Opts: opts, name: "GAN(conv)", back: gan.Conv}
}

// Name implements Synthesizer.
func (m *GANModel) Name() string { return m.name }

// Fit implements Synthesizer.
func (m *GANModel) Fit(train *tabular.Table) error {
	cfg := gan.DefaultConfig(m.back)
	cfg.Hidden = m.Opts.GANHidden
	cfg.LatentDim = m.Opts.GANLatent
	rng := rand.New(rand.NewSource(m.Opts.Seed + 17))
	m.g = gan.New(rng, train, cfg)
	m.g.Rec = m.Opts.Recorder
	m.g.Train(train, m.Opts.GANIters, m.Opts.Batch)
	return nil
}

// Sample implements Synthesizer.
func (m *GANModel) Sample(n int) (*tabular.Table, error) {
	if m.g == nil {
		return nil, fmt.Errorf("%s: Sample before Fit", m.name)
	}
	if err := checkRows(m.name, n); err != nil {
		return nil, err
	}
	return m.g.Sample(n)
}
