package diffusion

import (
	"math/rand"
)

// Multinomial implements the categorical forward process of Hoogeboom et
// al. for one feature with K categories: at each step the category is kept
// with probability 1-β_t or resampled uniformly. The TabDDPM baseline uses
// one Multinomial per categorical column.
//
// Training uses the x0-parameterisation with a cross-entropy surrogate for
// the multinomial KL term (the two coincide at t=1 and the surrogate is the
// standard practical choice); sampling uses the exact categorical posterior
// q(x_{t-1} | x_t, x̂0).
type Multinomial struct {
	S *Schedule
	K int
}

// NewMultinomial creates multinomial mechanics for K categories.
func NewMultinomial(s *Schedule, k int) *Multinomial { return &Multinomial{S: s, K: k} }

// QSampleCode corrupts a single category code to timestep t using the
// closed-form marginal: keep with probability ᾱ_t, else uniform.
func (m *Multinomial) QSampleCode(rng *rand.Rand, code, t int) int {
	if rng.Float64() < m.S.AlphaBar[t] {
		return code
	}
	return rng.Intn(m.K)
}

// QSampleCodes corrupts a batch of codes with per-row timesteps.
func (m *Multinomial) QSampleCodes(rng *rand.Rand, codes []int, ts []int) []int {
	out := make([]int, len(codes))
	for i, c := range codes {
		out[i] = m.QSampleCode(rng, c, ts[i])
	}
	return out
}

// PosteriorProbsStrided returns q(x_{tPrev} | x_t = xt, x̂0 = x0Probs) for a
// strided jump from timestep t to tPrev < t as a length-K probability vector:
// the normalised product of the likelihood of reaching xt — kept with the
// effective multi-step probability ᾱ_t/ᾱ_{tPrev}, else resampled uniformly —
// and the ᾱ_{tPrev}-smoothed x0 prediction. At tPrev = t−1 it is the
// one-step posterior of Hoogeboom et al.
func (m *Multinomial) PosteriorProbsStrided(xt, t, tPrev int, x0Probs []float64) []float64 {
	k := float64(m.K)
	alphaEff := m.S.AlphaBar[t] / m.S.AlphaBar[tPrev]
	betaEff := 1 - alphaEff
	abPrev := m.S.AlphaBar[tPrev]
	out := make([]float64, m.K)
	sum := 0.0
	for j := 0; j < m.K; j++ {
		like := betaEff / k
		if j == xt {
			like += alphaEff
		}
		prior := abPrev*x0Probs[j] + (1-abPrev)/k
		out[j] = like * prior
		sum += out[j]
	}
	for j := range out {
		out[j] /= sum
	}
	return out
}

// SampleStepStrided draws x_{tPrev} for a strided jump; at tPrev=0 it
// samples x0 directly from the predicted distribution.
func (m *Multinomial) SampleStepStrided(rng *rand.Rand, xt, t, tPrev int, x0Probs []float64) int {
	if tPrev <= 0 {
		return SampleCategorical(rng, x0Probs)
	}
	return SampleCategorical(rng, m.PosteriorProbsStrided(xt, t, tPrev, x0Probs))
}

// SampleCategorical draws an index from an (assumed normalised) probability
// vector.
func SampleCategorical(rng *rand.Rand, probs []float64) int {
	u := rng.Float64()
	acc := 0.0
	for j, p := range probs {
		acc += p
		if u <= acc {
			return j
		}
	}
	return len(probs) - 1
}
