package tabular

import (
	"fmt"
	"math"

	"silofuse/internal/tensor"
)

// Span locates one source column inside an encoded feature matrix.
type Span struct {
	Col  int // source column index
	Lo   int // first encoded column
	Hi   int // one past the last encoded column
	Kind Kind
}

// Encoder maps a Table to the dense feature matrix used for model training:
// numeric columns are standardised to zero mean / unit variance; categorical
// columns are one-hot encoded (the mainstream encoding the paper's baselines
// use). The encoder is fitted on one table and can then transform and
// inverse-transform any table with the same schema.
type Encoder struct {
	Schema *Schema
	Spans  []Span
	Mean   []float64 // per source column; 0 for categorical
	Std    []float64 // per source column; 1 for categorical
	width  int
}

// NewEncoder fits an encoder on t.
func NewEncoder(t *Table) *Encoder {
	s := t.Schema
	e := &Encoder{
		Schema: s,
		Mean:   make([]float64, s.NumColumns()),
		Std:    make([]float64, s.NumColumns()),
	}
	off := 0
	for j, c := range s.Columns {
		span := Span{Col: j, Lo: off, Kind: c.Kind}
		if c.Kind == Categorical {
			off += c.Cardinality
			e.Std[j] = 1
		} else {
			off++
			col := t.NumColumn(j)
			mean, std := momentsOf(col)
			e.Mean[j] = mean
			e.Std[j] = std
		}
		span.Hi = off
		e.Spans = append(e.Spans, span)
	}
	e.width = off
	return e
}

func momentsOf(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 1
	}
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	for _, v := range xs {
		d := v - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	if std < 1e-9 {
		std = 1
	}
	return mean, std
}

// Width returns the encoded feature size (Table II's "#Aft.").
func (e *Encoder) Width() int { return e.width }

// Transform encodes t into a (rows, Width) matrix.
func (e *Encoder) Transform(t *Table) *tensor.Matrix {
	if t.Schema.NumColumns() != e.Schema.NumColumns() {
		panic(fmt.Sprintf("tabular: encoder fitted on %d cols, got %d", e.Schema.NumColumns(), t.Schema.NumColumns()))
	}
	out := tensor.New(t.Rows(), e.width)
	for i := 0; i < t.Rows(); i++ {
		src := t.Data.Row(i)
		dst := out.Row(i)
		for _, sp := range e.Spans {
			if sp.Kind == Categorical {
				dst[sp.Lo+e.Schema.Columns[sp.Col].Code(src[sp.Col])] = 1
			} else {
				dst[sp.Lo] = (src[sp.Col] - e.Mean[sp.Col]) / e.Std[sp.Col]
			}
		}
	}
	return out
}

// Inverse decodes an encoded matrix back into a Table: categorical spans
// take the arg-max; numeric spans are de-standardised.
func (e *Encoder) Inverse(m *tensor.Matrix) (*Table, error) {
	if m.Cols != e.width {
		return nil, fmt.Errorf("tabular: inverse expects width %d, got %d", e.width, m.Cols)
	}
	out := tensor.New(m.Rows, e.Schema.NumColumns())
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for _, sp := range e.Spans {
			if sp.Kind == Categorical {
				best, bv := sp.Lo, math.Inf(-1)
				for k := sp.Lo; k < sp.Hi; k++ {
					if src[k] > bv {
						bv = src[k]
						best = k
					}
				}
				dst[sp.Col] = float64(best - sp.Lo)
			} else {
				dst[sp.Col] = src[sp.Lo]*e.Std[sp.Col] + e.Mean[sp.Col]
			}
		}
	}
	return NewTable(e.Schema, out)
}
