package diffusion

import (
	"math"
	"math/rand"

	"silofuse/internal/tensor"
)

// NoisePredictor is the denoising network interface: given noisy inputs and
// per-row timesteps, it predicts the base noise ε (the paper's ε_θ(X^t, t)).
type NoisePredictor interface {
	Predict(x *tensor.Matrix, ts []int) *tensor.Matrix
}

// Gaussian wraps the continuous forward/backward diffusion processes for a
// given schedule (the paper's function F and the backbone's sampling loop).
type Gaussian struct {
	S *Schedule
}

// NewGaussian creates Gaussian process mechanics over schedule s.
func NewGaussian(s *Schedule) *Gaussian { return &Gaussian{S: s} }

// QSample computes the closed-form forward process (paper eq. 1):
// x_t = sqrt(ᾱ_t)·x0 + sqrt(1-ᾱ_t)·ε, with per-row timesteps ts and noise
// eps of the same shape as x0.
func (g *Gaussian) QSample(x0 *tensor.Matrix, ts []int, eps *tensor.Matrix) *tensor.Matrix {
	return g.QSampleInto(tensor.New(x0.Rows, x0.Cols), x0, ts, eps)
}

// QSampleInto is the destination-passing form of QSample: the noised batch
// is written into dst (same shape as x0) and returned.
func (g *Gaussian) QSampleInto(dst, x0 *tensor.Matrix, ts []int, eps *tensor.Matrix) *tensor.Matrix {
	for i := 0; i < x0.Rows; i++ {
		ab := g.S.AlphaBar[ts[i]]
		sa := math.Sqrt(ab)
		sb := math.Sqrt(1 - ab)
		src := x0.Row(i)
		ns := eps.Row(i)
		dr := dst.Row(i)
		for j := range dr {
			dr[j] = sa*src[j] + sb*ns[j]
		}
	}
	return dst
}

// SampleTimesteps draws one uniform timestep in [1, T] per row.
func (g *Gaussian) SampleTimesteps(rng *rand.Rand, n int) []int {
	ts := make([]int, n)
	g.SampleTimestepsInto(rng, ts)
	return ts
}

// SampleTimestepsInto fills ts with uniform timesteps in [1, T].
func (g *Gaussian) SampleTimestepsInto(rng *rand.Rand, ts []int) {
	for i := range ts {
		ts[i] = 1 + rng.Intn(g.S.T)
	}
}

// ddimStep applies one DDIM update from timestep t to tPrev, writing the
// denoised batch into next: x0 is recovered from the noise prediction, then
// re-noised toward tPrev with optional eta-scaled stochasticity. At eta=0
// sigma is exactly 0 and rng is never read.
func (g *Gaussian) ddimStep(rng *rand.Rand, x, epsPred, next *tensor.Matrix, t, tPrev int, eta float64) {
	ab := g.S.AlphaBar[t]
	abPrev := g.S.AlphaBar[tPrev]
	sigma := eta * math.Sqrt((1-abPrev)/(1-ab)) * math.Sqrt(1-ab/abPrev)
	c1 := math.Sqrt(abPrev)
	c2 := math.Sqrt(math.Max(1-abPrev-sigma*sigma, 0))
	sqab := math.Sqrt(ab)
	sq1ab := math.Sqrt(1 - ab)
	for i := 0; i < x.Rows; i++ {
		xr := x.Row(i)
		er := epsPred.Row(i)
		nr := next.Row(i)
		for j := range nr {
			x0 := (xr[j] - sq1ab*er[j]) / sqab
			nr[j] = c1*x0 + c2*er[j]
			if sigma > 0 {
				nr[j] += sigma * rng.NormFloat64()
			}
		}
	}
}

// denoise is the one reverse-process loop every sampler runs: for each
// timestep of seq, net predicts the noise of the whole batch x at that
// timestep (ts, one entry per row, is filled here) and ddimStep writes the
// update into buf; the two then swap, so the loop allocates nothing. It
// returns the denoised batch and the spare buffer.
func (g *Gaussian) denoise(rng *rand.Rand, net NoisePredictor, x, buf *tensor.Matrix, ts, seq []int, eta float64) (out, spare *tensor.Matrix) {
	for si, t := range seq {
		tPrev := 0
		if si+1 < len(seq) {
			tPrev = seq[si+1]
		}
		for i := range ts {
			ts[i] = t
		}
		g.ddimStep(rng, x, net.Predict(x, ts), buf, t, tPrev, eta)
		x, buf = buf, x
	}
	return x, buf
}

// Sample runs DDIM-style strided ancestral sampling: starting from pure
// Gaussian noise it denoises over steps strided timesteps using net's noise
// predictions. eta=0 gives deterministic DDIM; eta=1 recovers DDPM-like
// stochastic sampling. The buffers are the call's own; Model samples through
// the same loop over buffers it keeps.
func (g *Gaussian) Sample(rng *rand.Rand, net NoisePredictor, n, dim, steps int, eta float64) *tensor.Matrix {
	x := tensor.New(n, dim).Randn(rng, 1)
	out, _ := g.denoise(rng, net, x, tensor.New(n, dim), make([]int, n), g.S.StridedTimesteps(steps), eta)
	return out
}
