// Package experiments regenerates every table and figure of the paper's
// evaluation section (Tables II–VII, Figures 10–11). Tables III–VII, Figure
// 11 and the ablations are projections of one set of cells (cells.go), each
// fitted once however many of them read it; Table II and Figures 10/10x
// measure schemas and bytes, not scores, and run on their own. A formatter
// prints each as the paper reports it. Scale (rows, iterations, trials) is
// configurable; Fast() keeps CPU runs to seconds per cell while preserving
// the qualitative shape, Standard() runs bigger.
package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"silofuse/internal/core"
	"silofuse/internal/datagen"
	"silofuse/internal/metrics"
	"silofuse/internal/privacy"
	"silofuse/internal/tabular"
)

// Experiment-level seed constants. Every source of randomness an experiment
// draws beyond Config.Seed is named here so a reader can see at a glance
// that figure reproduction is fully pinned.
const (
	// PermutationSeed seeds the column permutation of the Figure 11
	// permuted-split ablation. It is fixed independently of Config.Seed so
	// the permuted feature order is identical across trials and scales —
	// only the model seed varies between trials.
	PermutationSeed int64 = 12343
	// TrialSeedStride spaces the per-trial model seeds (Seed + trial*stride);
	// a prime keeps trial streams from aliasing dataset seed offsets.
	TrialSeedStride int64 = 7919
)

// Config controls experiment scale.
type Config struct {
	RowCap    int // cap on generated rows per dataset (0 = paper row count)
	SynthRows int // synthetic rows drawn for evaluation
	TestFrac  float64
	Trials    int
	Seed      int64

	Opts    core.Options
	ResCfg  metrics.ResemblanceConfig
	UtilCfg metrics.UtilityConfig
	PrivCfg privacy.Config

	Datasets []string // nil = all nine
	Models   []string // nil = full zoo
}

// Fast returns a configuration sized for testing.B benchmarks: small but
// large enough that model rankings remain visible.
func Fast() Config {
	opts := core.FastOptions()
	util := metrics.DefaultUtilityConfig()
	util.Boost.NumRounds = 10
	util.MaxTrainRows = 600
	priv := privacy.DefaultConfig()
	priv.Attacks = 100
	return Config{
		RowCap:    700,
		SynthRows: 500,
		TestFrac:  0.25,
		Trials:    1,
		Seed:      1,
		Opts:      opts,
		ResCfg:    metrics.DefaultResemblanceConfig(),
		UtilCfg:   util,
		PrivCfg:   priv,
	}
}

// Standard returns the CLI default: larger datasets, more iterations and
// multiple trials (still CPU-feasible, minutes per table).
func Standard() Config {
	opts := core.DefaultOptions()
	return Config{
		RowCap:    4000,
		SynthRows: 2000,
		TestFrac:  0.2,
		Trials:    3,
		Seed:      1,
		Opts:      opts,
		ResCfg:    metrics.DefaultResemblanceConfig(),
		UtilCfg:   metrics.DefaultUtilityConfig(),
		PrivCfg:   privacy.DefaultConfig(),
	}
}

// datasets resolves the configured dataset subset, or when there is none
// the experiment's own def, or else all nine.
func (c Config) datasets(def ...string) ([]datagen.Spec, error) {
	names := c.Datasets
	if names == nil {
		names = def
	}
	if names == nil {
		names = datagen.Names()
	}
	out := make([]datagen.Spec, 0, len(names))
	for _, n := range names {
		s, err := datagen.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// models resolves the configured model subset, or when there is none the
// experiment's own def, or else the full zoo.
func (c Config) models(def ...string) []string {
	if c.Models != nil {
		return c.Models
	}
	if def != nil {
		return def
	}
	return core.ModelNames()
}

// prepare generates a dataset at the configured cap and splits train/test.
func (c Config) prepare(spec datagen.Spec) (train, test *tabular.Table) {
	rows := spec.PaperRows
	if c.RowCap > 0 && rows > c.RowCap {
		rows = c.RowCap
	}
	full := spec.Generate(rows, spec.Seed+c.Seed)
	return full.Split(rand.New(rand.NewSource((spec.Seed+c.Seed)*31)), c.TestFrac)
}

// Stat is a mean ± population standard deviation over trials.
type Stat struct {
	Mean, Std float64
}

// statOf summarises a slice of trial values.
func statOf(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	m := 0.0
	for _, v := range xs {
		m += v
	}
	m /= float64(len(xs))
	v := 0.0
	for _, x := range xs {
		d := x - m
		v += d * d
	}
	return Stat{Mean: m, Std: math.Sqrt(v / float64(len(xs)))}
}

// String formats the stat the way the paper's tables do.
func (s Stat) String() string { return fmt.Sprintf("%.1f±%.2f", s.Mean, s.Std) }
