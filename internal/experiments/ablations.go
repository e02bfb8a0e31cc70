package experiments

import (
	"fmt"
	"io"

	"silofuse/internal/core"
	"silofuse/internal/metrics"
)

// AblationResult is one design-choice variant's quality scores.
type AblationResult struct {
	Variant     string
	Resemblance Stat
	Utility     Stat
}

// Ablations measures the quality impact of SiloFuse's design choices,
// each toggled in isolation against the default configuration:
//
//   - no-whitening: skip the coordinator's latent standardisation (the
//     diffusion prior then mismatches the latent scale);
//   - mean-decode: take decoder means/arg-maxes instead of sampling the
//     output heads;
//   - cosine-schedule: cosine instead of linear variance schedule;
//   - ema: sample with exponentially averaged backbone weights;
//   - steps-5: 5 inference denoising steps instead of the scale's SynthSteps
//     (15 at fast, 25 at standard).
//
// The default dataset is cardio (one of the paper's showcase datasets).
func (c Config) Ablations() ([]AblationResult, error) {
	cc := c
	if cc.Datasets == nil {
		cc.Datasets = []string{"cardio"}
	}
	specs, err := cc.datasets()
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name  string
		apply func(*core.Options)
	}{
		{"baseline", func(*core.Options) {}},
		{"no-whitening", func(o *core.Options) { o.DisableLatentWhitening = true }},
		{"mean-decode", func(o *core.Options) { o.DecodeSampling = false }},
		{"cosine-schedule", func(o *core.Options) { o.CosineSchedule = true }},
		{"ema-0.995", func(o *core.Options) { o.EMADecay = 0.995 }},
		{"steps-5", func(o *core.Options) { o.SynthSteps = 5 }},
	}
	var out []AblationResult
	for _, spec := range specs {
		train, test := cc.prepare(spec)
		for _, v := range variants {
			var res, util []float64
			for trial := 0; trial < cc.Trials; trial++ {
				opts := cc.Opts
				opts.Seed = cc.Seed + int64(trial)*TrialSeedStride
				v.apply(&opts)
				m := core.NewSiloFuse(opts)
				if err := m.Fit(train); err != nil {
					return nil, fmt.Errorf("ablation %s: %w", v.name, err)
				}
				synth, err := m.Sample(cc.SynthRows)
				if err != nil {
					return nil, err
				}
				r, err := metrics.Resemblance(train, synth, cc.ResCfg)
				if err != nil {
					return nil, err
				}
				u, err := metrics.Utility(train, synth, test, cc.UtilCfg)
				if err != nil {
					return nil, err
				}
				res = append(res, r.Score)
				util = append(util, u.Score)
			}
			name := v.name
			if len(specs) > 1 {
				name = spec.Name + "/" + v.name
			}
			out = append(out, AblationResult{Variant: name, Resemblance: statOf(res), Utility: statOf(util)})
		}
	}
	return out, nil
}

// PrintAblations renders the ablation study.
func PrintAblations(w io.Writer, rows []AblationResult) {
	fmt.Fprintln(w, "Ablations: SiloFuse design choices (resemblance / utility)")
	fmt.Fprintf(w, "%-24s %14s %14s\n", "Variant", "Resemblance", "Utility")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %14s %14s\n", r.Variant, r.Resemblance, r.Utility)
	}
}
