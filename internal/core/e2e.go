package core

import (
	"fmt"

	"silofuse/internal/silo"
	"silofuse/internal/tabular"
)

// E2E wraps the end-to-end split pipeline as a Synthesizer. With one client
// it is the centralized E2E baseline (paper Fig. 8); with several it is
// E2EDistr (Fig. 9), whose communication grows with the iteration count.
type E2E struct {
	Opts Options
	name string

	bus  *silo.CodecBus
	pipe *silo.E2EPipeline
}

// NewE2E builds the centralized end-to-end baseline.
func NewE2E(opts Options) *E2E {
	opts.Clients = 1
	opts.Permutation = nil
	opts.SplitWidths = false
	return &E2E{Opts: opts, name: "E2E"}
}

// NewE2EDistr builds the distributed end-to-end baseline.
func NewE2EDistr(opts Options) *E2E {
	if opts.Clients < 1 {
		opts.Clients = 1
	}
	return &E2E{Opts: opts, name: "E2EDistr"}
}

// Name implements Synthesizer.
func (e *E2E) Name() string { return e.name }

// Fit implements Synthesizer: joint training of encoders, backbone and
// decoders. The iteration budget is AEIters+DiffIters to match the stacked
// models' total optimisation work.
func (e *E2E) Fit(train *tabular.Table) error {
	bus, err := transport(e.Opts)
	if err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	e.bus = bus
	sf := SiloFuse{Opts: e.Opts}
	cfg := sf.pipelineConfig()
	pipe, err := silo.NewE2EPipeline(e.bus, train, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", e.name, err)
	}
	pipe.SetRecorder(e.Opts.Recorder)
	e.pipe = pipe
	if _, err := pipe.Train(e.Opts.AEIters + e.Opts.DiffIters); err != nil {
		return fmt.Errorf("%s: train: %w", e.name, err)
	}
	return nil
}

// Sample implements Synthesizer.
func (e *E2E) Sample(n int) (*tabular.Table, error) {
	if e.pipe == nil {
		return nil, fmt.Errorf("%s: Sample before Fit", e.name)
	}
	if err := checkRows(e.name, n); err != nil {
		return nil, err
	}
	return e.pipe.Synthesize(n, e.Opts.DecodeSampling)
}

// CommStats returns the transport statistics accumulated so far.
func (e *E2E) CommStats() silo.Stats {
	if e.bus == nil {
		return silo.Stats{}
	}
	return e.bus.Stats()
}

// WireReport returns the per-kind bytes-vs-error accounting of the wire
// codec layer (nil before Fit).
func (e *E2E) WireReport() map[string]silo.WireKindStats {
	if e.bus == nil {
		return nil
	}
	return e.bus.WireReport()
}
