package experiments

import (
	"fmt"
	"io"

	"silofuse/internal/core"
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
func (c Config) Ablations() ([]AblationResult, error) { return project(c, (*Cells).Ablations) }

// Ablations projects the ablation study from the set. Its baseline is Table
// III's SiloFuse cell.
func (s *Cells) Ablations() ([]AblationResult, error) {
	specs, err := s.cfg.datasets("cardio")
	if err != nil {
		return nil, err
	}
	ablations := []struct {
		name string
		v    variant
	}{
		{"baseline", variant{}},
		{"no-whitening", variant{"no-whitening", func(o *core.Options) { o.DisableLatentWhitening = true }}},
		{"mean-decode", variant{"mean-decode", func(o *core.Options) { o.DecodeSampling = false }}},
		{"cosine-schedule", variant{"cosine-schedule", func(o *core.Options) { o.CosineSchedule = true }}},
		{"ema-0.995", variant{"ema-0.995", func(o *core.Options) { o.EMADecay = 0.995 }}},
		{"steps-5", s.cfg.steps(5)},
	}
	var out []AblationResult
	for _, spec := range specs {
		for _, a := range ablations {
			name := a.name
			if len(specs) > 1 {
				name = spec.Name + "/" + a.name
			}
			out = append(out, AblationResult{
				Variant:     name,
				Resemblance: s.stat(spec, "silofuse", a.v, "resemblance"),
				Utility:     s.stat(spec, "silofuse", a.v, "utility"),
			})
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
