// Package tabular provides the data model for mixed-type tables: schemas
// with categorical and numeric columns, encodings (one-hot, standardised),
// vertical partitioning for the cross-silo setting, splits, and CSV I/O.
package tabular

import (
	"fmt"
	"math/rand"
)

// Kind distinguishes column types.
type Kind int

const (
	// Numeric columns hold continuous values.
	Numeric Kind = iota
	// Categorical columns hold integer category codes in [0, Cardinality).
	Categorical
)

// String renders the kind for diagnostics.
func (k Kind) String() string {
	if k == Numeric {
		return "numeric"
	}
	return "categorical"
}

// Column describes one table column.
type Column struct {
	Name        string
	Kind        Kind
	Cardinality int // number of categories; 0 for numeric columns
}

// code converts a cell of categorical column c to its category code; ok is
// false unless the cell holds an integer in [0, Cardinality).
func (c *Column) code(v float64) (k int, ok bool) {
	k = int(v)
	return k, float64(k) == v && k >= 0 && k < c.Cardinality //silofuse:bitwise-ok integrality check of category code
}

// Code returns the category code held by a cell of categorical column c.
// NewTable admits only integers in [0, Cardinality), so any other value means
// a Table was assembled around unchecked data; an encoder that read on would
// light a neighbouring column's one-hot slot (or gather its weights) and
// produce a silently wrong model, so Code panics, naming the column.
func (c *Column) Code(v float64) int {
	k, ok := c.code(v)
	if !ok {
		panic(fmt.Sprintf("tabular: column %q: invalid category code %v (cardinality %d)", c.Name, v, c.Cardinality))
	}
	return k
}

// Schema is an ordered list of column descriptions.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema and validates it.
func NewSchema(cols []Column) (*Schema, error) {
	seen := make(map[string]bool, len(cols))
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("tabular: column %d has empty name", i)
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("tabular: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		switch c.Kind {
		case Numeric:
			if c.Cardinality != 0 {
				return nil, fmt.Errorf("tabular: numeric column %q has cardinality %d", c.Name, c.Cardinality)
			}
		case Categorical:
			if c.Cardinality < 2 {
				return nil, fmt.Errorf("tabular: categorical column %q needs cardinality >= 2, got %d", c.Name, c.Cardinality)
			}
		default:
			return nil, fmt.Errorf("tabular: column %q has unknown kind %d", c.Name, c.Kind)
		}
	}
	return &Schema{Columns: cols}, nil
}

// MustSchema is NewSchema that panics on error, for static schema literals.
func MustSchema(cols []Column) *Schema {
	s, err := NewSchema(cols)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the total number of columns (paper's d, pre-one-hot).
func (s *Schema) NumColumns() int { return len(s.Columns) }

// CategoricalIndexes returns the indexes of categorical columns.
func (s *Schema) CategoricalIndexes() []int {
	var out []int
	for i, c := range s.Columns {
		if c.Kind == Categorical {
			out = append(out, i)
		}
	}
	return out
}

// OneHotWidth returns the encoded feature size (paper's "#Aft."): the sum of
// categorical cardinalities plus the number of numeric columns.
func (s *Schema) OneHotWidth() int {
	w := 0
	for _, c := range s.Columns {
		if c.Kind == Categorical {
			w += c.Cardinality
		} else {
			w++
		}
	}
	return w
}

// Select returns a new schema containing the given columns in order.
func (s *Schema) Select(idx []int) *Schema {
	cols := make([]Column, len(idx))
	for i, j := range idx {
		cols[i] = s.Columns[j]
	}
	return &Schema{Columns: cols}
}

// Partition splits column indexes into m contiguous blocks, the paper's
// default assignment: equal sizes with the remainder going to the last
// client. If perm is non-nil it is applied to the column order first
// (the "permuted" robustness setting).
func (s *Schema) Partition(m int, perm []int) ([][]int, error) {
	d := len(s.Columns)
	if m < 1 || m > d {
		return nil, fmt.Errorf("tabular: cannot partition %d columns into %d parts", d, m)
	}
	order := make([]int, d)
	if perm != nil {
		if len(perm) != d {
			return nil, fmt.Errorf("tabular: permutation length %d != columns %d", len(perm), d)
		}
		copy(order, perm)
	} else {
		for i := range order {
			order[i] = i
		}
	}
	per := d / m
	parts := make([][]int, m)
	off := 0
	for i := 0; i < m; i++ {
		size := per
		if i == m-1 {
			size = d - off // remainder to the last client, per the paper
		}
		parts[i] = append([]int(nil), order[off:off+size]...)
		off += size
	}
	return parts, nil
}

// RandomPermutation returns a feature permutation drawn from rng, used by
// the Fig. 11 robustness experiment (the paper uses seed 12343).
func (s *Schema) RandomPermutation(rng *rand.Rand) []int {
	return rng.Perm(len(s.Columns))
}
