//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package tabular

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"silofuse/internal/tensor"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema([]Column{
		{Name: "age", Kind: Numeric},
		{Name: "color", Kind: Categorical, Cardinality: 3},
		{Name: "income", Kind: Numeric},
		{Name: "flag", Kind: Categorical, Cardinality: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTable(t *testing.T) *Table {
	t.Helper()
	data := tensor.FromRows([][]float64{
		{25, 0, 50000, 1},
		{30, 1, 60000, 0},
		{35, 2, 70000, 1},
		{40, 1, 80000, 0},
	})
	tb, err := NewTable(testSchema(t), data)
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name string
		cols []Column
	}{
		{"empty name", []Column{{Name: "", Kind: Numeric}}},
		{"dup name", []Column{{Name: "a", Kind: Numeric}, {Name: "a", Kind: Numeric}}},
		{"numeric with cardinality", []Column{{Name: "a", Kind: Numeric, Cardinality: 3}}},
		{"cat cardinality 1", []Column{{Name: "a", Kind: Categorical, Cardinality: 1}}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.cols); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

func TestOneHotWidth(t *testing.T) {
	s := testSchema(t)
	if got := s.OneHotWidth(); got != 2+3+2 {
		t.Fatalf("OneHotWidth = %d", got)
	}
}

func TestCategoricalAndNumericIndexes(t *testing.T) {
	s := testSchema(t)
	ci := s.CategoricalIndexes()
	if len(ci) != 2 || ci[0] != 1 || ci[1] != 3 {
		t.Fatalf("cat idx = %v", ci)
	}
}

func TestNewTableRejectsBadCodes(t *testing.T) {
	s := testSchema(t)
	bad := tensor.FromRows([][]float64{{25, 5, 100, 0}}) // color code 5 out of range
	if _, err := NewTable(s, bad); err == nil {
		t.Fatal("expected invalid category code error")
	}
	frac := tensor.FromRows([][]float64{{25, 0.5, 100, 0}}) // non-integer code
	if _, err := NewTable(s, frac); err == nil {
		t.Fatal("expected non-integer code error")
	}
}

func TestColumnAccessors(t *testing.T) {
	tb := testTable(t)
	cc := tb.CatColumn(1)
	if cc[2] != 2 {
		t.Fatalf("CatColumn = %v", cc)
	}
	nc := tb.NumColumn(0)
	if nc[3] != 40 {
		t.Fatalf("NumColumn = %v", nc)
	}
}

func TestSelectColumnsAndRows(t *testing.T) {
	tb := testTable(t)
	sub := tb.SelectColumns([]int{3, 0})
	if sub.Schema.Columns[0].Name != "flag" || sub.Data.At(0, 1) != 25 {
		t.Fatal("SelectColumns wrong")
	}
	rows := tb.SelectRows([]int{2})
	if rows.Rows() != 1 || rows.Data.At(0, 0) != 35 {
		t.Fatal("SelectRows wrong")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	tb := testTable(t)
	train, test := tb.Split(rand.New(rand.NewSource(1)), 0.25)
	if train.Rows()+test.Rows() != tb.Rows() {
		t.Fatal("split loses rows")
	}
	if test.Rows() != 1 {
		t.Fatalf("test rows = %d", test.Rows())
	}
}

func TestPartitionDefault(t *testing.T) {
	s := testSchema(t)
	parts, err := s.Partition(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || len(parts[0]) != 2 || len(parts[1]) != 2 {
		t.Fatalf("parts = %v", parts)
	}
	// Remainder goes to the last client.
	s5 := MustSchema([]Column{
		{Name: "a", Kind: Numeric}, {Name: "b", Kind: Numeric}, {Name: "c", Kind: Numeric},
		{Name: "d", Kind: Numeric}, {Name: "e", Kind: Numeric},
	})
	parts, err = s5.Partition(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[0]) != 2 || len(parts[1]) != 3 {
		t.Fatalf("remainder assignment wrong: %v", parts)
	}
}

func TestPartitionErrors(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Partition(0, nil); err == nil {
		t.Fatal("expected error for m=0")
	}
	if _, err := s.Partition(5, nil); err == nil {
		t.Fatal("expected error for m > columns")
	}
	if _, err := s.Partition(2, []int{0, 1}); err == nil {
		t.Fatal("expected error for short permutation")
	}
}

func TestVerticalPartitionJoinRoundTrip(t *testing.T) {
	tb := testTable(t)
	perm := []int{2, 0, 3, 1}
	parts, err := tb.Schema.Partition(2, perm)
	if err != nil {
		t.Fatal(err)
	}
	silos := tb.VerticalPartition(parts)
	joined, err := JoinVertical(tb.Schema, parts, silos)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Data.Data {
		if joined.Data.Data[i] != tb.Data.Data[i] {
			t.Fatal("join does not invert partition")
		}
	}
}

// Property: partition + join round-trips for random schemas/permutations.
func TestPartitionJoinProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(10)
		cols := make([]Column, d)
		for i := range cols {
			if rng.Intn(2) == 0 {
				cols[i] = Column{Name: string(rune('a' + i)), Kind: Numeric}
			} else {
				cols[i] = Column{Name: string(rune('a' + i)), Kind: Categorical, Cardinality: 2 + rng.Intn(4)}
			}
		}
		s := MustSchema(cols)
		n := 1 + rng.Intn(20)
		data := tensor.New(n, d)
		for i := 0; i < n; i++ {
			for j, c := range cols {
				if c.Kind == Categorical {
					data.Set(i, j, float64(rng.Intn(c.Cardinality)))
				} else {
					data.Set(i, j, rng.NormFloat64())
				}
			}
		}
		tb, err := NewTable(s, data)
		if err != nil {
			return false
		}
		m := 1 + rng.Intn(d)
		perm := s.RandomPermutation(rng)
		parts, err := s.Partition(m, perm)
		if err != nil {
			return false
		}
		joined, err := JoinVertical(s, parts, tb.VerticalPartition(parts))
		if err != nil {
			return false
		}
		for i := range tb.Data.Data {
			if joined.Data.Data[i] != tb.Data.Data[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderRoundTrip(t *testing.T) {
	tb := testTable(t)
	enc := NewEncoder(tb)
	if enc.Width() != tb.Schema.OneHotWidth() {
		t.Fatalf("Width = %d, want %d", enc.Width(), tb.Schema.OneHotWidth())
	}
	m := enc.Transform(tb)
	back, err := enc.Inverse(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Data.Data {
		if math.Abs(back.Data.Data[i]-tb.Data.Data[i]) > 1e-9 {
			t.Fatalf("round trip mismatch at %d: %v vs %v", i, back.Data.Data[i], tb.Data.Data[i])
		}
	}
}

func TestEncoderStandardisesNumeric(t *testing.T) {
	tb := testTable(t)
	enc := NewEncoder(tb)
	m := enc.Transform(tb)
	// Column 0 of the encoding is standardised age: mean 0, std 1.
	col := m.Col(0)
	mean := 0.0
	for _, v := range col {
		mean += v
	}
	mean /= float64(len(col))
	if math.Abs(mean) > 1e-9 {
		t.Fatalf("standardised mean = %v", mean)
	}
}

func TestEncoderOneHot(t *testing.T) {
	tb := testTable(t)
	enc := NewEncoder(tb)
	m := enc.Transform(tb)
	// Row 2 has color=2: one-hot columns 1..4 (after age) are [0,0,1].
	sp := enc.Spans[1]
	row := m.Row(2)
	if row[sp.Lo] != 0 || row[sp.Lo+1] != 0 || row[sp.Lo+2] != 1 {
		t.Fatalf("one-hot wrong: %v", row[sp.Lo:sp.Hi])
	}
}

// TestTransformRejectsBadCode: a table that did not come from NewTable
// (SelectRows and friends wrap data unchecked) may hold a code outside its
// column's cardinality. Transform used to write that one-hot slot anyway —
// color=3 lit the first slot of "income" — and must now panic naming the
// column.
func TestTransformRejectsBadCode(t *testing.T) {
	tb := testTable(t)
	enc := NewEncoder(tb)
	for _, code := range []float64{3, -1, 0.5, math.NaN()} {
		bad := tb.SelectRows([]int{0, 1})
		bad.Data.Set(1, 1, code)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, `"color"`) {
					t.Errorf("code %v: want a panic naming column color, got %q", code, msg)
				}
			}()
			enc.Transform(bad)
		}()
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tb := testTable(t)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, tb.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != tb.Rows() {
		t.Fatalf("rows = %d", back.Rows())
	}
	for i := range tb.Data.Data {
		if back.Data.Data[i] != tb.Data.Data[i] {
			t.Fatal("csv round trip mismatch")
		}
	}
}

func TestReadCSVHeaderMismatch(t *testing.T) {
	tb := testTable(t)
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	other := MustSchema([]Column{
		{Name: "x", Kind: Numeric},
		{Name: "color", Kind: Categorical, Cardinality: 3},
		{Name: "income", Kind: Numeric},
		{Name: "flag", Kind: Categorical, Cardinality: 2},
	})
	if _, err := ReadCSV(&buf, other); err == nil {
		t.Fatal("expected header mismatch error")
	}
}

func TestHeadClamps(t *testing.T) {
	tb := testTable(t)
	if tb.Head(100).Rows() != 4 {
		t.Fatal("Head should clamp to table size")
	}
	if tb.Head(2).Rows() != 2 {
		t.Fatal("Head(2) wrong")
	}
}
