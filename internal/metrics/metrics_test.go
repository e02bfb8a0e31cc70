//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package metrics

import (
	"math"
	"math/rand"
	"testing"

	"silofuse/internal/datagen"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

func cardioTables(t *testing.T) (real, same, other *tabular.Table) {
	t.Helper()
	spec, err := datagen.ByName("cardio")
	if err != nil {
		t.Fatal(err)
	}
	real = spec.Generate(1200, 1)
	same = spec.Generate(1200, 2) // fresh draw from the same distribution
	// A structurally different table: same schema, scrambled dependencies.
	otherSpec := spec
	otherSpec.NoiseStd = 3
	other = otherSpec.Generate(1200, 99)
	// Destroy correlation structure by shuffling each column independently.
	rng := rand.New(rand.NewSource(5))
	data := other.Data.Clone()
	for j := 0; j < data.Cols; j++ {
		col := data.Col(j)
		rng.Shuffle(len(col), func(a, b int) { col[a], col[b] = col[b], col[a] })
		data.SetCol(j, col)
	}
	other, err = tabular.NewTable(other.Schema, data)
	if err != nil {
		t.Fatal(err)
	}
	return real, same, other
}

func TestAssociationMatrixProperties(t *testing.T) {
	real, _, _ := cardioTables(t)
	m := AssociationMatrix(real)
	d := real.Schema.NumColumns()
	if m.Rows != d || m.Cols != d {
		t.Fatalf("shape %v", m)
	}
	for i := 0; i < d; i++ {
		if m.At(i, i) != 1 {
			t.Fatal("diagonal must be 1")
		}
		for j := 0; j < d; j++ {
			v := m.At(i, j)
			if v < -1-1e-9 || v > 1+1e-9 || math.IsNaN(v) {
				t.Fatalf("entry (%d,%d) = %v out of range", i, j, v)
			}
		}
	}
}

func TestAssociationDifferenceOrdering(t *testing.T) {
	real, same, other := cardioTables(t)
	_, dSame := AssociationDifference(real, same)
	_, dOther := AssociationDifference(real, other)
	if dSame >= dOther {
		t.Fatalf("same-distribution diff %v should beat shuffled diff %v", dSame, dOther)
	}
	if dSame > 0.15 {
		t.Fatalf("same-distribution association diff too large: %v", dSame)
	}
}

// TestResemblanceOrdering is the core sanity property: a fresh sample from
// the true distribution must score far higher than a column-shuffled,
// noise-inflated fake.
func TestResemblanceOrdering(t *testing.T) {
	real, same, other := cardioTables(t)
	cfg := DefaultResemblanceConfig()
	rSame, err := Resemblance(real, same, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rOther, err := Resemblance(real, other, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rSame.Score <= rOther.Score {
		t.Fatalf("resemblance ordering violated: same %v <= other %v", rSame.Score, rOther.Score)
	}
	if rSame.Score < 80 {
		t.Fatalf("true-distribution sample should score high: %v", rSame.Score)
	}
	for _, v := range []float64{rSame.ColumnSimilarity, rSame.CorrelationSimilarity, rSame.JSSimilarity, rSame.KSSimilarity, rSame.Propensity} {
		if v < 0 || v > 1 {
			t.Fatalf("component out of [0,1]: %v", v)
		}
	}
}

func TestResemblanceIdentityIsNear100(t *testing.T) {
	real, _, _ := cardioTables(t)
	cfg := DefaultResemblanceConfig()
	r, err := Resemblance(real, real, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Identical tables: everything except propensity is exactly 1, and the
	// discriminator should be almost unable to beat 50% (it sees duplicate
	// rows with contradictory labels).
	if r.ColumnSimilarity < 0.999 || r.JSSimilarity < 0.999 || r.KSSimilarity < 0.999 || r.CorrelationSimilarity < 0.999 {
		t.Fatalf("identity components should be 1: %+v", r)
	}
	if r.Score < 90 {
		t.Fatalf("identity resemblance %v", r.Score)
	}
}

func TestResemblanceSchemaMismatch(t *testing.T) {
	real, _, _ := cardioTables(t)
	sub := real.SelectColumns([]int{0, 1})
	if _, err := Resemblance(real, sub, DefaultResemblanceConfig()); err == nil {
		t.Fatal("expected schema mismatch error")
	}
}

func TestUtilityOrdering(t *testing.T) {
	real, same, other := cardioTables(t)
	test := real.SelectRows(seq(800, 1200))
	train := real.SelectRows(seq(0, 800))
	cfg := DefaultUtilityConfig()
	cfg.Boost.NumRounds = 15
	cfg.MaxTrainRows = 800

	uSame, err := Utility(train, same, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	uOther, err := Utility(train, other, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if uSame.Score <= uOther.Score {
		t.Fatalf("utility ordering violated: same %v <= shuffled %v", uSame.Score, uOther.Score)
	}
	if uSame.Score < 70 {
		t.Fatalf("true-distribution utility too low: %v", uSame.Score)
	}
	if uSame.Columns != real.Schema.NumColumns() {
		t.Fatalf("expected all columns evaluated, got %d", uSame.Columns)
	}
}

func TestUtilitySkipsWideCategoricals(t *testing.T) {
	spec, err := datagen.ByName("churn") // has a 2932-cardinality column
	if err != nil {
		t.Fatal(err)
	}
	tb := spec.Generate(300, 3)
	cfg := DefaultUtilityConfig()
	cfg.Boost.NumRounds = 3
	cfg.MaxColumns = 4
	u, err := Utility(tb, tb, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if u.Columns > 4 {
		t.Fatalf("MaxColumns not applied: %d", u.Columns)
	}
}

func TestUtilityTrainOnSelfScores100(t *testing.T) {
	real, _, _ := cardioTables(t)
	train := real.SelectRows(seq(0, 600))
	test := real.SelectRows(seq(600, 1200))
	cfg := DefaultUtilityConfig()
	cfg.Boost.NumRounds = 10
	u, err := Utility(train, train, test, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if u.Score != 100 {
		t.Fatalf("synth == real train should give 100: %v", u.Score)
	}
}

func TestRangeUnionDegenerate(t *testing.T) {
	lo, hi := rangeUnion([]float64{2, 2}, []float64{2})
	if !(hi > lo) {
		t.Fatal("degenerate range must be widened")
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func TestAssociationMatrixConstantColumn(t *testing.T) {
	s := tabular.MustSchema([]tabular.Column{
		{Name: "a", Kind: tabular.Numeric},
		{Name: "b", Kind: tabular.Numeric},
	})
	data := tensor.FromRows([][]float64{{1, 1}, {1, 2}, {1, 3}})
	tb, err := tabular.NewTable(s, data)
	if err != nil {
		t.Fatal(err)
	}
	m := AssociationMatrix(tb)
	if m.At(0, 1) != 0 {
		t.Fatalf("constant column should associate 0: %v", m.At(0, 1))
	}
}
