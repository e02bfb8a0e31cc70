package experiments

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"silofuse/internal/core"
	"silofuse/internal/datagen"
	"silofuse/internal/metrics"
	"silofuse/internal/obs"
	"silofuse/internal/privacy"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// A cell is one fit: a model trained on one dataset under one variant of the
// configured options with one trial's seed, sampled once and scored on every
// metric a projection reads from it. Its seed is Config.Seed +
// trial·TrialSeedStride, which no variant touches, so cells are independent:
// no score depends on the worker count or on which cell finishes first.
type cell struct {
	cellKey
	spec   datagen.Spec
	tweak  func(*core.Options) // nil: the configured options
	need   map[string]bool     // the headline metrics projections read
	scores map[string]float64  // nil until scored
	heat   string              // Table V's heat map, with association_mean_diff
	rec    *obs.Recorder
}

type cellKey struct {
	Dataset, Model, Variant string
	Trial                   int
}

// String names a cell's trace lane and errors: loan/latentdiff/t1 steps-5.
func (k cellKey) String() string {
	return strings.TrimSpace(fmt.Sprintf("%s/%s/t%d %s", k.Dataset, k.Model, k.Trial, k.Variant))
}

// recordOrder is every metric a cell can carry, in cells.jsonl's order. A
// projection reads resemblance, utility, privacy or association_mean_diff;
// the others are computed with privacy.
var recordOrder = []string{"resemblance", "utility", "privacy", "privacy_singling_out",
	"privacy_linkability", "privacy_attribute_inference", "association_mean_diff"}

// variant is a named tweak of the configured options. The zero variant is
// the options as configured; a tweak that would leave them unchanged is
// written as the zero variant, so its cell is shared.
type variant struct {
	name  string
	tweak func(*core.Options)
}

// steps samples with n denoising steps. A step count is its own fit: a
// second Sample on one fit would draw from an rng the first had advanced.
func (c Config) steps(n int) variant {
	if n == c.Opts.SynthSteps {
		return variant{}
	}
	return variant{fmt.Sprintf("steps-%d", n), func(o *core.Options) { o.SynthSteps = n }}
}

// partition spreads spec's features over clients silos, in schema order or
// permuted with PermutationSeed.
func (c Config) partition(spec datagen.Spec, clients int, permuted bool) variant {
	var name []string
	if clients != c.Opts.Clients {
		name = append(name, fmt.Sprintf("clients-%d", clients))
	}
	var perm []int
	if permuted {
		name = append(name, "permuted")
		perm = spec.Schema().RandomPermutation(rand.New(rand.NewSource(PermutationSeed)))
	}
	if name == nil && c.Opts.Permutation == nil {
		return variant{}
	}
	return variant{strings.Join(name, ","), func(o *core.Options) { o.Clients, o.Permutation = clients, perm }}
}

// Cells is a set of cells, in the order projections first asked for them.
// Tables III–VII, Figure 11 and the ablations are its projections: called
// before Run, a projection adds the cells it reads (and returns empty
// scores); called after, it reads their scores.
type Cells struct {
	cfg   Config
	cells []*cell
	index map[cellKey]*cell
	recs  []*obs.Recorder // the cells' own, in cell order
}

// NewCells starts an empty cell set over c.
func NewCells(c Config) *Cells { return &Cells{cfg: c, index: make(map[cellKey]*cell)} }

// Len is the number of cells in the set.
func (s *Cells) Len() int { return len(s.cells) }

// cell returns cell (spec, model, v, trial), adding it if it is new, and
// marks metric as read.
func (s *Cells) cell(spec datagen.Spec, model string, v variant, trial int, metric string) *cell {
	k := cellKey{spec.Name, model, v.name, trial}
	cl, ok := s.index[k]
	if !ok {
		cl = &cell{cellKey: k, spec: spec, tweak: v.tweak, need: make(map[string]bool)}
		s.index[k] = cl
		s.cells = append(s.cells, cl)
	}
	cl.need[metric] = true
	return cl
}

// stat is metric's mean ± std over the trials of cell (spec, model, v).
func (s *Cells) stat(spec datagen.Spec, model string, v variant, metric string) Stat {
	vals := make([]float64, s.cfg.Trials)
	for trial := range vals {
		vals[trial] = s.cell(spec, model, v, trial, metric).scores[metric]
	}
	return statOf(vals)
}

// Run fits, samples and scores every cell not yet scored, each once, on
// runtime.GOMAXPROCS(0) workers, preparing each dataset once. With
// Config.Opts.Recorder set, every cell records on a recorder of its own over
// that recorder's registry (Recorders), so two concurrent fits
// never share a span stack. Its error joins the failed cells', in cell order;
// after a cell fails, workers take no new cells.
func (s *Cells) Run() error {
	var todo []*cell
	data := make(map[string][2]*tabular.Table) // train, test
	for _, cl := range s.cells {
		if cl.scores != nil {
			continue
		}
		todo = append(todo, cl)
		if _, ok := data[cl.Dataset]; !ok {
			train, test := s.cfg.prepare(cl.spec)
			data[cl.Dataset] = [2]*tabular.Table{train, test}
		}
	}
	if rec := s.cfg.Opts.Recorder; rec != nil {
		for _, cl := range todo {
			cl.rec = obs.NewPartyRecorder(rec.Reg, 2+len(s.recs), cl.String()) // lane 1 is rec's
			s.recs = append(s.recs, cl.rec)
		}
	}
	errs := make([]error, len(todo))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(todo)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo) && !failed.Load(); i = int(next.Add(1) - 1) {
				d := data[todo[i].Dataset]
				if err := s.score(todo[i], d[0], d[1]); err != nil {
					errs[i] = fmt.Errorf("%s: %w", todo[i], err)
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// score fits and samples cl's model once and computes the metrics it needs.
func (s *Cells) score(cl *cell, train, test *tabular.Table) error {
	c := s.cfg
	opts := c.Opts
	opts.Seed = c.Seed + int64(cl.Trial)*TrialSeedStride
	opts.Recorder = cl.rec
	if cl.tweak != nil {
		cl.tweak(&opts)
	}
	m, err := core.New(cl.Model, opts)
	if err != nil {
		return err
	}
	if err := m.Fit(train); err != nil {
		return fmt.Errorf("fit: %w", err)
	}
	synth, err := m.Sample(c.SynthRows)
	if err != nil {
		return fmt.Errorf("sample: %w", err)
	}
	scores := make(map[string]float64)
	if cl.need["resemblance"] {
		r, err := metrics.Resemblance(train, synth, c.ResCfg)
		if err != nil {
			return err
		}
		scores["resemblance"] = r.Score
	}
	if cl.need["utility"] {
		u, err := metrics.Utility(train, synth, test, c.UtilCfg)
		if err != nil {
			return err
		}
		scores["utility"] = u.Score
	}
	if cl.need["privacy"] {
		p, err := privacy.Evaluate(train, synth, c.PrivCfg)
		if err != nil {
			return err
		}
		scores["privacy"], scores["privacy_singling_out"] = p.Score, p.SinglingOut
		scores["privacy_linkability"], scores["privacy_attribute_inference"] = p.Linkability, p.AttributeInference
	}
	if cl.need["association_mean_diff"] {
		var diff *tensor.Matrix
		diff, scores["association_mean_diff"] = metrics.AssociationDifference(train, synth)
		cl.heat = heatMap(diff)
	}
	cl.scores = scores
	return nil
}

// heatMap renders an |Δassociation| matrix in ASCII shades, darker = worse,
// saturating at 0.5.
func heatMap(diff *tensor.Matrix) string {
	const shades = " .:-=+*#%@"
	var b strings.Builder
	for i := 0; i < diff.Rows; i++ {
		for j := 0; j < diff.Cols; j++ {
			b.WriteByte(shades[min(int(diff.At(i, j)*float64(len(shades)-1)*2), len(shades)-1)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Recorders returns the recorders the cells ran with, in cell order: a
// Chrome-trace lane each.
func (s *Cells) Recorders() []*obs.Recorder { return s.recs }

// WriteRecord writes the set as cells.jsonl: one JSON line per (dataset,
// model, variant, trial, metric) of every scored cell, cells in set order
// and metrics in recordOrder, so equal scores are equal bytes. A value is
// strconv's shortest form that reads back to the same bits, quoted when it
// is NaN or ±Inf, which JSON has no number for. Names are ASCII identifiers
// (datagen's, core's and the variants'), which %q quotes as JSON does.
func (s *Cells) WriteRecord(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, cl := range s.cells {
		for _, metric := range recordOrder {
			if v, ok := cl.scores[metric]; ok {
				val := strconv.FormatFloat(v, 'g', -1, 64)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					val = strconv.Quote(val)
				}
				fmt.Fprintf(bw, `{"dataset":%q,"model":%q,"variant":%q,"trial":%d,"metric":%q,"value":%s}`+"\n",
					cl.Dataset, cl.Model, cl.Variant, cl.Trial, metric, val)
			}
		}
	}
	return bw.Flush()
}

// project gathers the cells f reads into a new set over c, runs them and
// returns f's projection of the scored set.
func project[T any](c Config, f func(*Cells) (T, error)) (T, error) {
	s := NewCells(c)
	v, err := f(s)
	if err == nil {
		err = s.Run()
	}
	if err != nil {
		return v, err
	}
	return f(s)
}
