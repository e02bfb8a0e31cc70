package tabular

import (
	"fmt"
	"math"
	"math/rand"

	"silofuse/internal/tensor"
)

// Table is a dataset: a schema plus a raw value matrix of shape
// (rows, len(schema.Columns)). Categorical cells store the category code as
// a float64; numeric cells store the value directly.
type Table struct {
	Schema *Schema
	Data   *tensor.Matrix
}

// NewTable wraps data with schema after validating shape and category codes.
func NewTable(schema *Schema, data *tensor.Matrix) (*Table, error) {
	if data.Cols != schema.NumColumns() {
		return nil, fmt.Errorf("tabular: data has %d cols, schema has %d", data.Cols, schema.NumColumns())
	}
	for j := range schema.Columns {
		c := &schema.Columns[j]
		if c.Kind != Categorical {
			continue
		}
		for i := 0; i < data.Rows; i++ {
			v := data.At(i, j)
			if _, ok := c.code(v); !ok {
				return nil, fmt.Errorf("tabular: row %d col %q: invalid category code %v (cardinality %d)", i, c.Name, v, c.Cardinality)
			}
		}
	}
	return &Table{Schema: schema, Data: data}, nil
}

// Rows returns the number of rows.
func (t *Table) Rows() int { return t.Data.Rows }

// CatColumn returns column j decoded as integer category codes. It panics if
// the column is not categorical.
func (t *Table) CatColumn(j int) []int {
	if t.Schema.Columns[j].Kind != Categorical {
		panic(fmt.Sprintf("tabular: column %d is not categorical", j))
	}
	out := make([]int, t.Rows())
	for i := range out {
		out[i] = int(t.Data.At(i, j))
	}
	return out
}

// NumColumn returns numeric column j as a copy. It panics if the column is
// not numeric.
func (t *Table) NumColumn(j int) []float64 {
	if t.Schema.Columns[j].Kind != Numeric {
		panic(fmt.Sprintf("tabular: column %d is not numeric", j))
	}
	return t.Data.Col(j)
}

// SelectColumns returns a new table with the chosen columns, copying data.
func (t *Table) SelectColumns(idx []int) *Table {
	out := tensor.New(t.Rows(), len(idx))
	for i := 0; i < t.Rows(); i++ {
		row := t.Data.Row(i)
		dst := out.Row(i)
		for k, j := range idx {
			dst[k] = row[j]
		}
	}
	return &Table{Schema: t.Schema.Select(idx), Data: out}
}

// SelectRows returns a new table with the chosen rows, copying data.
func (t *Table) SelectRows(idx []int) *Table {
	return &Table{Schema: t.Schema, Data: t.Data.GatherRows(idx)}
}

// Head returns the first n rows (or fewer if the table is smaller).
func (t *Table) Head(n int) *Table {
	if n > t.Rows() {
		n = t.Rows()
	}
	return &Table{Schema: t.Schema, Data: t.Data.SliceRows(0, n)}
}

// Split shuffles rows with rng and returns train and test tables where test
// receives ceil(testFrac * rows) rows.
func (t *Table) Split(rng *rand.Rand, testFrac float64) (train, test *Table) {
	n := t.Rows()
	perm := rng.Perm(n)
	nTest := int(math.Ceil(testFrac * float64(n)))
	if nTest > n {
		nTest = n
	}
	test = t.SelectRows(perm[:nTest])
	train = t.SelectRows(perm[nTest:])
	return train, test
}

// VerticalPartition splits the table across parts (as produced by
// Schema.Partition), returning one table per client. Rows stay aligned: row
// i of every part corresponds to row i of the original — the paper's aligned
// vertical partitioning after private set intersection.
func (t *Table) VerticalPartition(parts [][]int) []*Table {
	out := make([]*Table, len(parts))
	for i, p := range parts {
		out[i] = t.SelectColumns(p)
	}
	return out
}

// JoinVertical re-concatenates vertically partitioned tables in client order
// with the column order given by parts, producing a table whose columns are
// back in the original schema order of base.
func JoinVertical(base *Schema, parts [][]int, tables []*Table) (*Table, error) {
	if len(parts) != len(tables) {
		return nil, fmt.Errorf("tabular: %d parts but %d tables", len(parts), len(tables))
	}
	rows := tables[0].Rows()
	out := tensor.New(rows, base.NumColumns())
	for pi, p := range parts {
		tb := tables[pi]
		if tb.Rows() != rows {
			return nil, fmt.Errorf("tabular: part %d has %d rows, want %d", pi, tb.Rows(), rows)
		}
		if len(p) != tb.Schema.NumColumns() {
			return nil, fmt.Errorf("tabular: part %d has %d cols, assignment has %d", pi, tb.Schema.NumColumns(), len(p))
		}
		for k, j := range p {
			for i := 0; i < rows; i++ {
				out.Set(i, j, tb.Data.At(i, k))
			}
		}
	}
	return NewTable(base, out)
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	return &Table{Schema: t.Schema, Data: t.Data.Clone()}
}
