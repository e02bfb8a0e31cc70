package gan

import (
	"math/rand"
	"runtime"
	"time"

	"silofuse/internal/nn"
	"silofuse/internal/obs"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// Backbone selects the generator/discriminator architecture family.
type Backbone int

const (
	// Linear is the CTGAN-flavoured MLP backbone (paper's GAN(linear)).
	Linear Backbone = iota
	// Conv is the CTAB-GAN-flavoured 1-D convolutional backbone
	// (paper's GAN(conv)).
	Conv
)

// Config holds GAN hyper-parameters. The paper uses four convolutional or
// linear layers with leaky ReLU and layer norm in the generator and the
// transposed architecture in the discriminator.
type Config struct {
	Backbone  Backbone
	LatentDim int
	Hidden    int
	LR        float64
	LeakAlpha float64
}

// DefaultConfig returns CPU-scaled defaults for the chosen backbone.
func DefaultConfig(b Backbone) Config {
	return Config{Backbone: b, LatentDim: 32, Hidden: 128, LR: 2e-4, LeakAlpha: 0.2}
}

// GAN is a centralized tabular GAN operating in the encoded feature space.
type GAN struct {
	Cfg Config
	Enc *tabular.Encoder
	// Rec, when non-nil, receives per-step loss/throughput telemetry from
	// Train (stage "gan"; the recorded loss is the generator loss).
	Rec *obs.Recorder

	gen   *nn.Sequential
	disc  *nn.Sequential
	optG  *nn.Adam
	optD  *nn.Adam
	rng   *rand.Rand
	width int
}

// New builds a GAN for the schema of train, fitting the feature encoder on
// it.
func New(rng *rand.Rand, train *tabular.Table, cfg Config) *GAN {
	enc := tabular.NewEncoder(train)
	width := enc.Width()
	g := &GAN{Cfg: cfg, Enc: enc, rng: rng, width: width}
	switch cfg.Backbone {
	case Conv:
		g.gen = buildConvGenerator(rng, cfg, width, enc.Spans)
		g.disc = buildConvDiscriminator(rng, cfg, width)
	default:
		g.gen = buildLinearGenerator(rng, cfg, width, enc.Spans)
		g.disc = buildLinearDiscriminator(rng, cfg, width)
	}
	g.optG = nn.NewAdam(g.gen.Params(), cfg.LR)
	g.optG.Beta1 = 0.5
	g.optG.ClipNorm = 5
	g.optD = nn.NewAdam(g.disc.Params(), cfg.LR)
	g.optD.Beta1 = 0.5
	g.optD.ClipNorm = 5
	return g
}

func buildLinearGenerator(rng *rand.Rand, cfg Config, width int, spans []tabular.Span) *nn.Sequential {
	return nn.NewSequential(
		nn.NewLinear(rng, cfg.LatentDim, cfg.Hidden), nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(cfg.Hidden),
		nn.NewLinear(rng, cfg.Hidden, cfg.Hidden), nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(cfg.Hidden),
		nn.NewLinear(rng, cfg.Hidden, cfg.Hidden), nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(cfg.Hidden),
		nn.NewLinear(rng, cfg.Hidden, width),
		newOutputActivation(spans),
	)
}

func buildLinearDiscriminator(rng *rand.Rand, cfg Config, width int) *nn.Sequential {
	return nn.NewSequential(
		nn.NewLinear(rng, width, cfg.Hidden), nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(cfg.Hidden),
		nn.NewLinear(rng, cfg.Hidden, cfg.Hidden), nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(cfg.Hidden),
		nn.NewLinear(rng, cfg.Hidden, cfg.Hidden), nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(cfg.Hidden),
		nn.NewLinear(rng, cfg.Hidden, 1),
	)
}

// buildConvGenerator upsamples a projected noise tensor with two transposed
// convolutions and maps it to the exact feature width with a final linear.
func buildConvGenerator(rng *rand.Rand, cfg Config, width int, spans []tabular.Span) *nn.Sequential {
	const c1, l0 = 8, 8                                  // start: 8 channels x length 8
	ct1 := nn.NewConvTranspose1D(rng, c1, c1/2, 4, 2, 1) // -> 4 x 16
	l1 := ct1.OutLen(l0)
	ct2 := nn.NewConvTranspose1D(rng, c1/2, 2, 4, 2, 1) // -> 2 x 32
	l2 := ct2.OutLen(l1)
	return nn.NewSequential(
		nn.NewLinear(rng, cfg.LatentDim, c1*l0), nn.NewLeakyReLU(cfg.LeakAlpha),
		ct1, nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(c1/2*l1),
		ct2, nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(2*l2),
		nn.NewLinear(rng, 2*l2, width),
		newOutputActivation(spans),
	)
}

// buildConvDiscriminator mirrors the generator: two strided convolutions
// over the (1, width) feature signal followed by a linear head.
func buildConvDiscriminator(rng *rand.Rand, cfg Config, width int) *nn.Sequential {
	cv1 := nn.NewConv1D(rng, 1, 4, 4, 2, 1)
	l1 := cv1.OutLen(width)
	cv2 := nn.NewConv1D(rng, 4, 8, 4, 2, 1)
	l2 := cv2.OutLen(l1)
	return nn.NewSequential(
		cv1, nn.NewLeakyReLU(cfg.LeakAlpha),
		cv2, nn.NewLeakyReLU(cfg.LeakAlpha), nn.NewLayerNorm(8*l2),
		nn.NewLinear(rng, 8*l2, 1),
	)
}

// TrainStep performs one discriminator update and one generator update on a
// real minibatch, returning the discriminator and generator losses.
func (g *GAN) TrainStep(real *tabular.Table) (dLoss, gLoss float64) {
	n := real.Rows()
	xReal := g.Enc.Transform(real)

	// Discriminator step: real -> 1, fake -> 0.
	z := tensor.New(n, g.Cfg.LatentDim).Randn(g.rng, 1)
	fake := g.gen.Forward(z, true)

	outReal := g.disc.Forward(xReal, true)
	lossReal, gradReal := nn.BCEWithLogitsLoss(outReal, onesLabels(n, 1))
	g.disc.Backward(gradReal)

	outFake := g.disc.Forward(fake, true)
	lossFake, gradFake := nn.BCEWithLogitsLoss(outFake, onesLabels(n, 0))
	g.disc.Backward(gradFake)
	g.optD.Step()
	dLoss = lossReal + lossFake

	// Generator step: fool the discriminator (non-saturating loss).
	z = tensor.New(n, g.Cfg.LatentDim).Randn(g.rng, 1)
	fake = g.gen.Forward(z, true)
	outFake = g.disc.Forward(fake, true)
	gLoss, gradFake = nn.BCEWithLogitsLoss(outFake, onesLabels(n, 1))
	gradG := g.disc.Backward(gradFake)
	g.optD.ZeroGrads() // the discriminator is frozen during the G step
	g.gen.Backward(gradG)
	g.optG.Step()
	return dLoss, gLoss
}

// Train runs iters alternating steps with minibatches of size batch and
// returns the final generator loss.
func (g *GAN) Train(train *tabular.Table, iters, batch int) float64 {
	if batch > train.Rows() {
		batch = train.Rows()
	}
	idx := make([]int, batch)
	var gLoss float64
	var ms0 runtime.MemStats
	if g.Rec != nil {
		runtime.ReadMemStats(&ms0)
	}
	for it := 0; it < iters; it++ {
		for i := range idx {
			idx[i] = g.rng.Intn(train.Rows())
		}
		var t0 time.Time
		if g.Rec != nil {
			t0 = time.Now()
		}
		_, gLoss = g.TrainStep(train.SelectRows(idx))
		if g.Rec != nil {
			g.Rec.TrainStep("gan", gLoss, batch, time.Since(t0))
		}
	}
	if g.Rec != nil {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		g.Rec.TrainAllocs("gan", iters, ms1.Mallocs-ms0.Mallocs)
	}
	return gLoss
}

// Sample draws n synthetic rows and decodes them into a table.
func (g *GAN) Sample(n int) (*tabular.Table, error) {
	z := tensor.New(n, g.Cfg.LatentDim).Randn(g.rng, 1)
	fake := g.gen.Forward(z, false)
	return g.Enc.Inverse(fake)
}

func onesLabels(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
