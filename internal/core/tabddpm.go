package core

import (
	"fmt"
	"math"
	"math/rand"

	"silofuse/internal/diffusion"
	"silofuse/internal/nn"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// TabDDPM is the centralized state-of-the-art baseline (Kotelnikov et al.):
// a diffusion model operating directly in the one-hot + standardised data
// space, combining a Gaussian process over numeric columns with a
// multinomial process per categorical column (paper eq. 3). It requires no
// autoencoders, but pays the one-hot feature expansion of Table II.
type TabDDPM struct {
	Opts Options

	schema *tabular.Schema
	enc    *tabular.Encoder
	gauss  *diffusion.Gaussian
	multis []*diffusion.Multinomial // one per categorical column, span order
	net    *nn.DiffusionMLP
	opt    *nn.Adam
	rng    *rand.Rand

	catSpans []tabular.Span
	numSpans []tabular.Span
}

// NewTabDDPM builds the baseline with the given options.
func NewTabDDPM(opts Options) *TabDDPM {
	return &TabDDPM{Opts: opts, rng: rand.New(rand.NewSource(opts.Seed + 31))}
}

// Name implements Synthesizer.
func (m *TabDDPM) Name() string { return "TabDDPM" }

// Fit implements Synthesizer.
func (m *TabDDPM) Fit(train *tabular.Table) error {
	m.schema = train.Schema
	m.enc = tabular.NewEncoder(train)
	sch := diffusion.LinearSchedule(m.Opts.T, 1e-4, 0.02)
	m.gauss = diffusion.NewGaussian(sch)
	m.catSpans = m.catSpans[:0]
	m.numSpans = m.numSpans[:0]
	m.multis = m.multis[:0]
	for _, sp := range m.enc.Spans {
		if sp.Kind == tabular.Categorical {
			m.catSpans = append(m.catSpans, sp)
			m.multis = append(m.multis, diffusion.NewMultinomial(sch, sp.Hi-sp.Lo))
		} else {
			m.numSpans = append(m.numSpans, sp)
		}
	}
	width := m.enc.Width()
	// The paper gives TabDDPM a 6-layer MLP backbone with hidden 256.
	m.net = nn.NewDiffusionMLP(m.rng, width, m.Opts.DiffHidden, width, m.Opts.DiffDepth, m.Opts.DiffTimeDim, 0)
	m.net.WarmTimesteps(m.Opts.T)
	m.opt = nn.NewAdam(m.net.Params(), m.Opts.LR)

	iters := m.Opts.DiffIters
	batch := m.Opts.Batch
	if batch > train.Rows() {
		batch = train.Rows()
	}
	idx := make([]int, batch)
	rec := m.Opts.Recorder
	for it := 0; it < iters; it++ {
		for i := range idx {
			idx[i] = m.rng.Intn(train.Rows())
		}
		t0 := rec.Now()
		loss := m.trainStep(train.SelectRows(idx))
		if rec != nil {
			rec.TrainStep("tabddpm", loss, batch, rec.Since(t0))
		}
	}
	return nil
}

// trainStep runs one combined Gaussian+multinomial diffusion step.
func (m *TabDDPM) trainStep(batch *tabular.Table) float64 {
	n := batch.Rows()
	x0 := m.enc.Transform(batch)
	ts := m.gauss.SampleTimesteps(m.rng, n)

	// Build the noisy input: Gaussian q-sample on numeric spans, multinomial
	// category corruption (re-one-hotted) on categorical spans.
	input := tensor.New(n, x0.Cols)
	eps := tensor.New(n, x0.Cols) // only numeric positions used
	for _, sp := range m.numSpans {
		ab := 0.0
		for i := 0; i < n; i++ {
			ab = m.gauss.S.AlphaBar[ts[i]]
			e := m.rng.NormFloat64()
			eps.Set(i, sp.Lo, e)
			input.Set(i, sp.Lo, math.Sqrt(ab)*x0.At(i, sp.Lo)+math.Sqrt(1-ab)*e)
		}
	}
	for ci, sp := range m.catSpans {
		codes := batch.CatColumn(sp.Col)
		noisy := m.multis[ci].QSampleCodes(m.rng, codes, ts)
		for i := 0; i < n; i++ {
			input.Set(i, sp.Lo+noisy[i], 1)
		}
	}

	out := m.net.Forward(input, ts, true)

	// Loss and gradient assembly: MSE on numeric spans (ε-prediction),
	// cross-entropy on categorical spans (x0-parameterisation).
	grad := tensor.New(n, x0.Cols)
	total := 0.0
	if len(m.numSpans) > 0 {
		cnt := float64(n * len(m.numSpans))
		for _, sp := range m.numSpans {
			for i := 0; i < n; i++ {
				d := out.At(i, sp.Lo) - eps.At(i, sp.Lo)
				total += d * d / cnt
				grad.Set(i, sp.Lo, 2*d/cnt)
			}
		}
	}
	for _, sp := range m.catSpans {
		logits := out.SliceCols(sp.Lo, sp.Hi)
		codes := batch.CatColumn(sp.Col)
		loss, g := nn.CrossEntropyLoss(logits, codes)
		scale := 1 / float64(len(m.catSpans))
		total += loss * scale
		for k := 0; k < g.Cols; k++ {
			col := g.Col(k)
			for i := 0; i < n; i++ {
				grad.Set(i, sp.Lo+k, col[i]*scale)
			}
		}
	}
	m.net.Backward(grad)
	m.opt.Step()
	return total
}

// Sample implements Synthesizer: numeric columns follow DDIM updates while
// categorical columns follow strided multinomial posterior sampling.
func (m *TabDDPM) Sample(n int) (*tabular.Table, error) {
	if m.net == nil {
		return nil, fmt.Errorf("TabDDPM: Sample before Fit")
	}
	if err := checkRows("TabDDPM", n); err != nil {
		return nil, err
	}
	width := m.enc.Width()
	seq := m.gauss.S.StridedTimesteps(m.Opts.SynthSteps)

	// Initialise: numeric ~ N(0,1); categories uniform.
	num := tensor.New(n, width)
	for _, sp := range m.numSpans {
		for i := 0; i < n; i++ {
			num.Set(i, sp.Lo, m.rng.NormFloat64())
		}
	}
	codes := make([][]int, len(m.catSpans))
	for ci, sp := range m.catSpans {
		codes[ci] = make([]int, n)
		k := sp.Hi - sp.Lo
		for i := 0; i < n; i++ {
			codes[ci][i] = m.rng.Intn(k)
		}
	}

	ts := make([]int, n)
	for si, t := range seq {
		tPrev := 0
		if si+1 < len(seq) {
			tPrev = seq[si+1]
		}
		input := tensor.New(n, width)
		for _, sp := range m.numSpans {
			for i := 0; i < n; i++ {
				input.Set(i, sp.Lo, num.At(i, sp.Lo))
			}
		}
		for ci, sp := range m.catSpans {
			for i := 0; i < n; i++ {
				input.Set(i, sp.Lo+codes[ci][i], 1)
			}
		}
		for i := range ts {
			ts[i] = t
		}
		out := m.net.Forward(input, ts, false)

		// Numeric DDIM update (η=0).
		ab := m.gauss.S.AlphaBar[t]
		abPrev := m.gauss.S.AlphaBar[tPrev]
		c1 := math.Sqrt(abPrev)
		c2 := math.Sqrt(1 - abPrev)
		sqab := math.Sqrt(ab)
		sq1ab := math.Sqrt(1 - ab)
		for _, sp := range m.numSpans {
			for i := 0; i < n; i++ {
				e := out.At(i, sp.Lo)
				x0 := (num.At(i, sp.Lo) - sq1ab*e) / sqab
				num.Set(i, sp.Lo, c1*x0+c2*e)
			}
		}
		// Categorical posterior step.
		for ci, sp := range m.catSpans {
			logits := out.SliceCols(sp.Lo, sp.Hi)
			probs := nn.Softmax(logits)
			for i := 0; i < n; i++ {
				codes[ci][i] = m.multis[ci].SampleStepStrided(m.rng, codes[ci][i], t, tPrev, probs.Row(i))
			}
		}
	}

	// Assemble the final encoded matrix and decode.
	final := tensor.New(n, width)
	for _, sp := range m.numSpans {
		for i := 0; i < n; i++ {
			final.Set(i, sp.Lo, num.At(i, sp.Lo))
		}
	}
	for ci, sp := range m.catSpans {
		for i := 0; i < n; i++ {
			final.Set(i, sp.Lo+codes[ci][i], 1)
		}
	}
	return m.enc.Inverse(final)
}
