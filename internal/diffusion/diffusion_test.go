//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package diffusion

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"silofuse/internal/nn"
	"silofuse/internal/stats"
	"silofuse/internal/tensor"
)

func TestLinearScheduleInvariants(t *testing.T) {
	s := LinearSchedule(200, 1e-4, 0.02)
	if s.AlphaBar[0] != 1 {
		t.Fatal("AlphaBar[0] must be 1")
	}
	for tt := 1; tt <= s.T; tt++ {
		if s.Beta[tt] <= 0 || s.Beta[tt] >= 1 {
			t.Fatalf("beta[%d] = %v out of (0,1)", tt, s.Beta[tt])
		}
		if s.AlphaBar[tt] >= s.AlphaBar[tt-1] {
			t.Fatalf("AlphaBar must strictly decrease at %d", tt)
		}
	}
	if s.Beta[1] != 1e-4 || math.Abs(s.Beta[s.T]-0.02) > 1e-12 {
		t.Fatal("endpoints wrong")
	}
	// After 200 steps nearly all signal is destroyed.
	if s.AlphaBar[s.T] > 0.2 {
		t.Fatalf("terminal AlphaBar too high: %v", s.AlphaBar[s.T])
	}
}

func TestCosineScheduleInvariants(t *testing.T) {
	s := CosineSchedule(100)
	for tt := 1; tt <= s.T; tt++ {
		if s.Beta[tt] <= 0 || s.Beta[tt] > 0.999 {
			t.Fatalf("beta[%d] = %v", tt, s.Beta[tt])
		}
		if s.AlphaBar[tt] >= s.AlphaBar[tt-1] {
			t.Fatalf("AlphaBar must decrease at %d", tt)
		}
	}
	if s.AlphaBar[s.T] > 0.05 {
		t.Fatalf("cosine terminal AlphaBar = %v", s.AlphaBar[s.T])
	}
}

// TestCosineScheduleClosedForm holds CosineSchedule to Nichol and Dhariwal's
// closed form, written out here on its own: ᾱ_t = f(t)/f(0) with
// f(t) = cos²(((t/T) + 0.008)/1.008 · π/2), and β_t = 1 - ᾱ_t/ᾱ_{t-1} capped
// at 0.999. Wherever no clip fires, ᾱ_t and β_t must agree to 1e-12. The
// cap fires once, at t = T, where f(T) is cos² of π/2 and β_T would be 1:
// there the code's β is exactly 0.999. The code's extra floor of 1e-5 on β
// never fires at these T: the smallest closed-form β is β_1, 4.1e-5 at
// T = 1000 and larger at smaller T.
func TestCosineScheduleClosedForm(t *testing.T) {
	for _, T := range []int{100, 200, 1000} {
		f := func(t int) float64 {
			c := math.Cos((float64(t)/float64(T) + 0.008) / 1.008 * math.Pi / 2)
			return c * c
		}
		s := CosineSchedule(T)
		for tt := 1; tt <= T; tt++ {
			abPrev, ab := f(tt-1)/f(0), f(tt)/f(0)
			beta := 1 - ab/abPrev
			if beta < 1e-5 {
				t.Fatalf("T=%d: closed-form β_%d = %v is under the code's floor", T, tt, beta)
			}
			if beta > 0.999 {
				if tt != T {
					t.Fatalf("T=%d: the 0.999 cap fires at t=%d, before t=T", T, tt)
				}
				if s.Beta[tt] != 0.999 {
					t.Fatalf("T=%d: capped β_T = %v, want 0.999", T, s.Beta[tt])
				}
				continue
			}
			if math.Abs(s.AlphaBar[tt]-ab) > 1e-12 || math.Abs(s.Beta[tt]-beta) > 1e-12 {
				t.Fatalf("T=%d, t=%d: ᾱ %v β %v, closed form ᾱ %v β %v", T, tt, s.AlphaBar[tt], s.Beta[tt], ab, beta)
			}
		}
	}
}

func TestStridedTimesteps(t *testing.T) {
	s := LinearSchedule(200, 1e-4, 0.02)
	seq := s.StridedTimesteps(25)
	if len(seq) != 25 {
		t.Fatalf("len = %d", len(seq))
	}
	if seq[0] != 200 || seq[len(seq)-1] != 1 {
		t.Fatalf("endpoints: %d..%d", seq[0], seq[len(seq)-1])
	}
	for i := 1; i < len(seq); i++ {
		if seq[i] >= seq[i-1] {
			t.Fatal("sequence must be strictly descending")
		}
	}
	// Degenerate cases.
	if got := s.StridedTimesteps(1); len(got) != 1 || got[0] != 200 {
		t.Fatalf("steps=1: %v", got)
	}
	if got := s.StridedTimesteps(1000); len(got) != 200 {
		t.Fatalf("steps>T should clamp: %d", len(got))
	}
}

func TestQSampleEndpoints(t *testing.T) {
	s := LinearSchedule(100, 1e-4, 0.02)
	g := NewGaussian(s)
	rng := rand.New(rand.NewSource(1))
	x0 := tensor.New(4, 3).Randn(rng, 1)
	eps := tensor.New(4, 3).Randn(rng, 1)

	// At t=1 output is close to x0 (tiny beta).
	xt := g.QSample(x0, []int{1, 1, 1, 1}, eps)
	for i := range xt.Data {
		if math.Abs(xt.Data[i]-x0.Data[i]) > 0.05*(1+math.Abs(x0.Data[i]))+0.05 {
			t.Fatalf("t=1 should barely change x0: %v vs %v", xt.Data[i], x0.Data[i])
		}
	}
	// At t=T the signal coefficient is sqrt(AlphaBar[T]).
	xT := g.QSample(x0, []int{100, 100, 100, 100}, eps)
	sa := math.Sqrt(s.AlphaBar[100])
	sb := math.Sqrt(1 - s.AlphaBar[100])
	for i := range xT.Data {
		want := sa*x0.Data[i] + sb*eps.Data[i]
		if math.Abs(xT.Data[i]-want) > 1e-12 {
			t.Fatal("closed form mismatch at t=T")
		}
	}
}

func TestSampleTimestepsRange(t *testing.T) {
	g := NewGaussian(LinearSchedule(50, 1e-4, 0.02))
	rng := rand.New(rand.NewSource(2))
	ts := g.SampleTimesteps(rng, 1000)
	seen1, seenT := false, false
	for _, v := range ts {
		if v < 1 || v > 50 {
			t.Fatalf("timestep %d out of range", v)
		}
		if v == 1 {
			seen1 = true
		}
		if v == 50 {
			seenT = true
		}
	}
	if !seen1 || !seenT {
		t.Fatal("timestep sampling should cover both endpoints over 1000 draws")
	}
}

// zeroPredictor predicts zero noise, so DDIM sampling reduces to
// deterministic rescaling — lets us test the sampler mechanics in isolation.
type zeroPredictor struct{}

func (zeroPredictor) Predict(x *tensor.Matrix, _ []int) *tensor.Matrix {
	return tensor.New(x.Rows, x.Cols)
}

func TestSampleWithZeroNoisePredictor(t *testing.T) {
	g := NewGaussian(LinearSchedule(50, 1e-4, 0.02))
	rng := rand.New(rand.NewSource(3))
	out := g.Sample(rng, zeroPredictor{}, 8, 4, 10, 0)
	if out.Rows != 8 || out.Cols != 4 {
		t.Fatalf("shape %v", out)
	}
	// With eps_pred = 0, x0_pred = x_t / sqrt(ab) and each step rescales;
	// the final output is finite and scaled-up noise.
	for _, v := range out.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("sampler produced non-finite values")
		}
	}
}

func TestMultinomialQSampleEndpoints(t *testing.T) {
	s := LinearSchedule(200, 1e-4, 0.02)
	m := NewMultinomial(s, 5)
	rng := rand.New(rand.NewSource(4))
	// At t=1, ᾱ≈1: category almost always kept.
	kept := 0
	for i := 0; i < 1000; i++ {
		if m.QSampleCode(rng, 3, 1) == 3 {
			kept++
		}
	}
	if kept < 990 {
		t.Fatalf("t=1 should keep the code almost surely: %d/1000", kept)
	}
	// At t=T, mostly resampled uniformly: expect 1/K + ᾱ_T fraction.
	kept = 0
	for i := 0; i < 5000; i++ {
		if m.QSampleCode(rng, 3, 200) == 3 {
			kept++
		}
	}
	frac := float64(kept) / 5000
	want := s.AlphaBar[200] + (1-s.AlphaBar[200])/5
	if math.Abs(frac-want) > 0.03 {
		t.Fatalf("t=T keep fraction %v, want ≈ %v", frac, want)
	}
}

func TestMultinomialPosteriorIsDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		s := LinearSchedule(50, 1e-4, 0.02)
		m := NewMultinomial(s, k)
		x0 := make([]float64, k)
		sum := 0.0
		for i := range x0 {
			x0[i] = rng.Float64()
			sum += x0[i]
		}
		for i := range x0 {
			x0[i] /= sum
		}
		tt := 2 + rng.Intn(48)
		tPrev := 1 + rng.Intn(tt-1)
		post := m.PosteriorProbsStrided(rng.Intn(k), tt, tPrev, x0)
		total := 0.0
		for _, p := range post {
			if p < 0 {
				return false
			}
			total += p
		}
		return math.Abs(total-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMultinomialPosteriorBehaviour(t *testing.T) {
	s := LinearSchedule(100, 1e-4, 0.02)
	m := NewMultinomial(s, 4)
	// At small t corruption is unlikely, so the posterior must follow x_t
	// regardless of the x0 prediction.
	x0 := []float64{0.01, 0.01, 0.97, 0.01}
	post := m.PosteriorProbsStrided(0, 2, 1, x0)
	if post[0] < 0.9 {
		t.Fatalf("posterior should follow x_t at small t: %v", post)
	}
	// When x_t agrees with a confident x0 prediction, the posterior is even
	// more concentrated on that category.
	agree := m.PosteriorProbsStrided(2, 50, 49, x0)
	if agree[2] < 0.9 {
		t.Fatalf("agreement case should concentrate on the category: %v", agree)
	}
	// With a uniform x0 prediction, the posterior still leans toward x_t.
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	lean := m.PosteriorProbsStrided(1, 50, 49, uniform)
	for j, p := range lean {
		if j != 1 && p >= lean[1] {
			t.Fatalf("posterior should lean toward x_t: %v", lean)
		}
	}
}

// TestMultinomialPosteriorOneStep: a jump of one timestep is the one-step
// posterior, written out here from its definition — likelihood β_t/K, plus
// α_t for the category x_t itself, times the prior ᾱ_{t−1}·x̂0 + (1−ᾱ_{t−1})/K,
// normalised. The strided form reaches α_t as ᾱ_t/ᾱ_{t−1}, so the two agree
// to rounding, not bit for bit.
func TestMultinomialPosteriorOneStep(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, s := range []*Schedule{LinearSchedule(200, 1e-4, 0.02), CosineSchedule(200)} {
		for _, k := range []int{2, 3, 7} {
			m := NewMultinomial(s, k)
			x0 := make([]float64, k)
			for _, tt := range []int{2, 3, 50, 120, 199, 200} {
				sum := 0.0
				for j := range x0 {
					x0[j] = rng.Float64()
					sum += x0[j]
				}
				for j := range x0 {
					x0[j] /= sum
				}
				xt := rng.Intn(k)
				want := make([]float64, k)
				norm := 0.0
				for j := range want {
					like := s.Beta[tt] / float64(k)
					if j == xt {
						like += s.Alpha[tt]
					}
					want[j] = like * (s.AlphaBar[tt-1]*x0[j] + (1-s.AlphaBar[tt-1])/float64(k))
					norm += want[j]
				}
				got := m.PosteriorProbsStrided(xt, tt, tt-1, x0)
				for j := range want {
					if d := math.Abs(got[j] - want[j]/norm); d > 1e-12 {
						t.Fatalf("K=%d t=%d x_t=%d: p[%d] = %v, one-step formula %v (diff %g)", k, tt, xt, j, got[j], want[j]/norm, d)
					}
				}
			}
		}
	}
}

// TestMultinomialPosteriorLogSpace holds the strided posterior to TabDDPM's
// log-space formulation (q_posterior in its gaussian_multinomial_diffusion),
// written out here with the one-step α_t of q_pred_one_timestep replaced by
// the jump's ᾱ_t/ᾱ_{tPrev}: log q(x_tPrev | x0) = logaddexp(log x̂0 + log
// ᾱ_{tPrev}, log(1−ᾱ_{tPrev}) − log K), plus log q(x_t | x_tPrev) =
// logaddexp(log 1[j = x_t] + log α, log(1−α) − log K), normalised by their
// logsumexp. Both forms compute the same quantity along different roundings,
// so they agree to 1e-12, not bit for bit, at T of 100, 200 and 1000, strides
// of 1, 5 and 40, on both schedules.
func TestMultinomialPosteriorLogSpace(t *testing.T) {
	logAddExp := func(a, b float64) float64 {
		if a < b {
			a, b = b, a
		}
		if math.IsInf(b, -1) {
			return a
		}
		return a + math.Log1p(math.Exp(b-a))
	}
	rng := rand.New(rand.NewSource(24))
	for _, T := range []int{100, 200, 1000} {
		for name, s := range map[string]*Schedule{"linear": LinearSchedule(T, 1e-4, 0.02), "cosine": CosineSchedule(T)} {
			for _, stride := range []int{1, 5, 40} {
				for _, k := range []int{2, 5, 11} {
					m := NewMultinomial(s, k)
					x0 := make([]float64, k)
					logK := math.Log(float64(k))
					for tt := stride + 1; tt <= T; tt += max(1, T/7) {
						tPrev := tt - stride
						sum := 0.0
						for j := range x0 {
							x0[j] = rng.Float64() + 1e-3
							sum += x0[j]
						}
						for j := range x0 {
							x0[j] /= sum
						}
						xt := rng.Intn(k)
						logAlpha := math.Log(s.AlphaBar[tt]) - math.Log(s.AlphaBar[tPrev])
						log1mAlpha := math.Log(-math.Expm1(logAlpha))
						logCum, log1mCum := math.Log(s.AlphaBar[tPrev]), math.Log1p(-s.AlphaBar[tPrev])
						unnormed := make([]float64, k)
						norm := math.Inf(-1)
						for j := range unnormed {
							logXt := math.Inf(-1)
							if j == xt {
								logXt = 0
							}
							unnormed[j] = logAddExp(math.Log(x0[j])+logCum, log1mCum-logK) + logAddExp(logXt+logAlpha, log1mAlpha-logK)
							norm = logAddExp(norm, unnormed[j])
						}
						got := m.PosteriorProbsStrided(xt, tt, tPrev, x0)
						for j := range unnormed {
							want := math.Exp(unnormed[j] - norm)
							if d := math.Abs(got[j] - want); d > 1e-12 {
								t.Fatalf("%s T=%d K=%d %d→%d x_t=%d: p[%d] = %v, log-space form %v (diff %g)", name, T, k, tt, tPrev, xt, j, got[j], want, d)
							}
						}
					}
				}
			}
		}
	}
}

func TestSampleCategorical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	counts := make([]int, 3)
	probs := []float64{0.2, 0.5, 0.3}
	for i := 0; i < 10000; i++ {
		counts[SampleCategorical(rng, probs)]++
	}
	for j, p := range probs {
		frac := float64(counts[j]) / 10000
		if math.Abs(frac-p) > 0.02 {
			t.Fatalf("category %d: %v, want %v", j, frac, p)
		}
	}
}

// TestModelLearnsBimodalDistribution is the end-to-end check: a DDPM
// trained on a two-cluster 2-D distribution must generate samples whose
// marginals match (KS) and that recover both modes.
func TestModelLearnsBimodalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 512
	data := tensor.New(n, 2)
	for i := 0; i < n; i++ {
		c := 1.5
		if i%2 == 0 {
			c = -1.5
		}
		data.Set(i, 0, c+0.2*rng.NormFloat64())
		data.Set(i, 1, -c+0.2*rng.NormFloat64())
	}
	cfg := ModelConfig{Dim: 2, Hidden: 64, Depth: 3, TimeDim: 16, T: 100, LR: 2e-3, Dropout: 0}
	m := NewModel(rand.New(rand.NewSource(7)), cfg)
	loss := m.Train(data, 1500, 128)
	if loss > 0.6 {
		t.Fatalf("training loss did not drop: %v", loss)
	}
	out := m.Sample(512, 25)
	ks0 := stats.KSStatistic(data.Col(0), out.Col(0))
	ks1 := stats.KSStatistic(data.Col(1), out.Col(1))
	if ks0 > 0.25 || ks1 > 0.25 {
		t.Fatalf("marginals off: KS %v %v", ks0, ks1)
	}
	// Both modes present.
	neg, pos := 0, 0
	for i := 0; i < out.Rows; i++ {
		if out.At(i, 0) > 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos < out.Rows/5 || neg < out.Rows/5 {
		t.Fatalf("mode collapse: %d positive, %d negative", pos, neg)
	}
	// Anti-correlation preserved.
	if c := stats.Pearson(out.Col(0), out.Col(1)); c > -0.5 {
		t.Fatalf("correlation not preserved: %v", c)
	}
}

// TestReleaseFoldsEMA: while a model trains, EMADecay keeps an average beside
// the live weights and changes nothing else; ReleaseTraining makes that
// average the weights, which is what Sample then reads and leaves alone.
func TestReleaseFoldsEMA(t *testing.T) {
	decay := 0.99 // a variable: 1-decay must round as it does at run time
	cfg := ModelConfig{Dim: 2, Hidden: 16, Depth: 1, TimeDim: 8, T: 20, LR: 5e-2, EMADecay: decay}
	m := NewModel(rand.New(rand.NewSource(18)), cfg)
	cfg.EMADecay = 0
	live := NewModel(rand.New(rand.NewSource(18)), cfg)
	data := tensor.New(32, 2).Randn(rand.New(rand.NewSource(19)), 1)
	var avg [][]float64
	for _, p := range live.Net.Params() {
		avg = append(avg, append([]float64(nil), p.Value.Data...))
	}
	for step := 0; step < 50; step++ {
		m.TrainStep(data)
		live.TrainStep(data)
		for i, p := range live.Net.Params() {
			for j, v := range p.Value.Data {
				if m.Net.Params()[i].Value.Data[j] != v {
					t.Fatalf("step %d: keeping an average moved live weight %d/%d", step, i, j)
				}
				avg[i][j] = decay*avg[i][j] + (1-decay)*v
			}
		}
	}
	m.ReleaseTraining()
	differ := false
	for i, p := range m.Net.Params() {
		for j, v := range p.Value.Data {
			if v != avg[i][j] {
				t.Fatalf("released weight %d/%d is %v, the average is %v", i, j, v, avg[i][j])
			}
			differ = differ || v != live.Net.Params()[i].Value.Data[j]
		}
	}
	if !differ {
		t.Fatal("after aggressive training the average equals the live weights: the test shows nothing")
	}
	_ = m.Sample(4, 5)
	for i, p := range m.Net.Params() {
		for j, v := range p.Value.Data {
			if v != avg[i][j] {
				t.Fatal("sampling must leave the weights alone")
			}
		}
	}
}

// TestSampleAfterRetrainReadsNewWeights: a model that has sampled holds its
// Linear weights packed for inference. Trained on under EMA and released
// (Fold), its next Sample must read the weights it has now: it must equal,
// with ==, a model that never sampled and was loaded with those weights.
func TestSampleAfterRetrainReadsNewWeights(t *testing.T) {
	cfg := ModelConfig{Dim: 8, Hidden: 32, Depth: 2, TimeDim: 8, T: 20, LR: 5e-2, EMADecay: 0.9}
	m := NewModel(rand.New(rand.NewSource(20)), cfg)
	data := tensor.New(32, cfg.Dim).Randn(rand.New(rand.NewSource(21)), 1)
	m.TrainStep(data)
	m.ReleaseTraining()
	m.SampleWithRng(rand.New(rand.NewSource(22)), 64, 5)
	for step := 0; step < 5; step++ {
		m.TrainStep(data)
	}
	m.ReleaseTraining()

	fresh := NewModel(rand.New(rand.NewSource(23)), cfg)
	var stream bytes.Buffer
	if err := nn.SaveParams(&stream, m.Net.Params()); err != nil {
		t.Fatal(err)
	}
	if err := nn.LoadParams(&stream, fresh.Net.Params()); err != nil {
		t.Fatal(err)
	}
	got := m.SampleWithRng(rand.New(rand.NewSource(24)), 64, 5)
	want := fresh.SampleWithRng(rand.New(rand.NewSource(24)), 64, 5)
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("sample %d is %v, a model loaded with the same weights draws %v", i, got.Data[i], want.Data[i])
		}
	}
}
