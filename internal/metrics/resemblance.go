package metrics

import (
	"fmt"
	"math"

	"silofuse/internal/gbdt"
	"silofuse/internal/stats"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// ResemblanceReport holds the five component scores (all in [0, 1]) and the
// composite resemblance score (0–100), mirroring Section V-B.
type ResemblanceReport struct {
	ColumnSimilarity      float64
	CorrelationSimilarity float64
	JSSimilarity          float64
	KSSimilarity          float64
	Propensity            float64
	Score                 float64 // mean of the five, ×100
}

// ResemblanceConfig tunes the metric computation.
type ResemblanceConfig struct {
	HistBins        int // bins for numeric JS histograms
	QuantilePoints  int // grid size for Q–Q column similarity
	PropensityRows  int // cap on rows per side for the discriminator
	PropensityBoost gbdt.Params
	Seed            int64
}

// DefaultResemblanceConfig returns the settings used by the experiment
// harness.
func DefaultResemblanceConfig() ResemblanceConfig {
	p := gbdt.DefaultParams()
	p.NumRounds = 25
	return ResemblanceConfig{HistBins: 20, QuantilePoints: 50, PropensityRows: 2000, PropensityBoost: p, Seed: 7}
}

// Resemblance computes the composite resemblance of synth to real. Both
// tables must share a schema.
func Resemblance(real, synth *tabular.Table, cfg ResemblanceConfig) (*ResemblanceReport, error) {
	if real.Schema.NumColumns() != synth.Schema.NumColumns() {
		return nil, fmt.Errorf("metrics: schema width mismatch %d vs %d", real.Schema.NumColumns(), synth.Schema.NumColumns())
	}
	r := &ResemblanceReport{}
	r.ColumnSimilarity = columnSimilarity(real, synth, cfg)
	r.CorrelationSimilarity = correlationSimilarity(real, synth)
	r.JSSimilarity = jsSimilarity(real, synth, cfg)
	r.KSSimilarity = ksSimilarity(real, synth)
	prop, err := propensitySimilarity(real, synth, cfg)
	if err != nil {
		return nil, err
	}
	r.Propensity = prop
	r.Score = 100 * (r.ColumnSimilarity + r.CorrelationSimilarity + r.JSSimilarity + r.KSSimilarity + r.Propensity) / 5
	return r, nil
}

// columnSimilarity: Q–Q correlation for numeric columns (clamped to [0,1]),
// 1−TVD of category frequencies for categorical columns, averaged.
func columnSimilarity(real, synth *tabular.Table, cfg ResemblanceConfig) float64 {
	total := 0.0
	for j, c := range real.Schema.Columns {
		if c.Kind == tabular.Numeric {
			qc := stats.QuantileCorrelation(real.NumColumn(j), synth.NumColumn(j), cfg.QuantilePoints)
			total += stats.Clamp(qc, 0, 1)
		} else {
			fr := stats.Frequencies(real.CatColumn(j), c.Cardinality)
			fs := stats.Frequencies(synth.CatColumn(j), c.Cardinality)
			total += 1 - stats.TVD(fr, fs)
		}
	}
	return total / float64(real.Schema.NumColumns())
}

// correlationSimilarity: 1 − normalised mean absolute difference of the
// association matrices. Pearson entries span [−1,1] (range 2); the rest
// span [0,1].
func correlationSimilarity(real, synth *tabular.Table) float64 {
	a := AssociationMatrix(real)
	b := AssociationMatrix(synth)
	d := real.Schema.NumColumns()
	if d < 2 {
		return 1
	}
	total := 0.0
	count := 0
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			if i == j {
				continue
			}
			rangeScale := 1.0
			if real.Schema.Columns[i].Kind == tabular.Numeric && real.Schema.Columns[j].Kind == tabular.Numeric {
				rangeScale = 2
			}
			total += math.Abs(a.At(i, j)-b.At(i, j)) / rangeScale
			count++
		}
	}
	return 1 - total/float64(count)
}

// jsSimilarity: 1 − Jensen–Shannon distance per column, averaged. Numeric
// columns are histogrammed over the union range.
func jsSimilarity(real, synth *tabular.Table, cfg ResemblanceConfig) float64 {
	total := 0.0
	for j, c := range real.Schema.Columns {
		var p, q []float64
		if c.Kind == tabular.Numeric {
			rv, sv := real.NumColumn(j), synth.NumColumn(j)
			lo, hi := rangeUnion(rv, sv)
			p = stats.Histogram(rv, lo, hi, cfg.HistBins)
			q = stats.Histogram(sv, lo, hi, cfg.HistBins)
		} else {
			p = stats.Frequencies(real.CatColumn(j), c.Cardinality)
			q = stats.Frequencies(synth.CatColumn(j), c.Cardinality)
		}
		total += 1 - stats.JSDistance(p, q)
	}
	return total / float64(real.Schema.NumColumns())
}

// ksSimilarity: 1 − KS statistic for numeric columns; the discrete analogue
// 1 − TVD for categorical ones.
func ksSimilarity(real, synth *tabular.Table) float64 {
	total := 0.0
	for j, c := range real.Schema.Columns {
		if c.Kind == tabular.Numeric {
			total += 1 - stats.KSStatistic(real.NumColumn(j), synth.NumColumn(j))
		} else {
			fr := stats.Frequencies(real.CatColumn(j), c.Cardinality)
			fs := stats.Frequencies(synth.CatColumn(j), c.Cardinality)
			total += 1 - stats.TVD(fr, fs)
		}
	}
	return total / float64(real.Schema.NumColumns())
}

// propensitySimilarity trains a GBDT discriminator to tell real from
// synthetic rows; the score is 1 − 2·mean|p − ½| (1 when indistinguishable).
func propensitySimilarity(real, synth *tabular.Table, cfg ResemblanceConfig) (float64, error) {
	nr, ns := real.Rows(), synth.Rows()
	if cfg.PropensityRows > 0 {
		if nr > cfg.PropensityRows {
			nr = cfg.PropensityRows
		}
		if ns > cfg.PropensityRows {
			ns = cfg.PropensityRows
		}
	}
	r := real.Head(nr)
	s := synth.Head(ns)
	enc := tabular.NewEncoder(r)
	// One encoding of the stacked raw rows rather than a stack of two
	// encodings: the encoded width is the wide side, so it is built once.
	x := enc.Transform(&tabular.Table{Schema: r.Schema, Data: tensor.VStack(r.Data, s.Data)})
	labels := make([]int, nr+ns)
	for i := nr; i < nr+ns; i++ {
		labels[i] = 1
	}
	clf := gbdt.NewClassifier(cfg.PropensityBoost, 2)
	if err := clf.Fit(x, labels); err != nil {
		return 0, fmt.Errorf("metrics: propensity: %w", err)
	}
	probs := clf.PredictProba(x)
	mae := 0.0
	for i := 0; i < probs.Rows; i++ {
		mae += math.Abs(probs.At(i, 1) - 0.5)
	}
	mae /= float64(probs.Rows)
	return stats.Clamp(1-2*mae, 0, 1), nil
}

func rangeUnion(a, b []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range a {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	for _, v := range b {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if !(hi > lo) {
		hi = lo + 1
	}
	return lo, hi
}
