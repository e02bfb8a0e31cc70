//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package datagen

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"silofuse/internal/stats"
	"silofuse/internal/tabular"
)

// TestTableIISchemas verifies every simulated dataset matches the paper's
// Table II exactly: row count, feature counts, and one-hot expansion size.
func TestTableIISchemas(t *testing.T) {
	want := map[string]struct {
		rows, cat, num, before, after int
		incr                          float64
	}{
		"loan":      {5000, 7, 6, 13, 23, 1.77},
		"adult":     {48842, 9, 5, 14, 108, 7.71},
		"cardio":    {70000, 7, 5, 12, 21, 1.75},
		"abalone":   {4177, 2, 8, 10, 39, 3.9},
		"churn":     {10000, 8, 6, 14, 2964, 211.71},
		"diabetes":  {768, 2, 7, 9, 26, 2.89},
		"cover":     {581012, 45, 10, 55, 104, 1.89},
		"intrusion": {22544, 22, 20, 42, 268, 6.38},
		"heloc":     {10250, 12, 12, 24, 239, 9.96},
	}
	if len(All) != len(want) {
		t.Fatalf("expected %d datasets, have %d", len(want), len(All))
	}
	for _, spec := range All {
		w, ok := want[spec.Name]
		if !ok {
			t.Fatalf("unexpected dataset %q", spec.Name)
		}
		if spec.PaperRows != w.rows {
			t.Errorf("%s: rows %d, want %d", spec.Name, spec.PaperRows, w.rows)
		}
		if len(spec.CatCards) != w.cat {
			t.Errorf("%s: cat cols %d, want %d", spec.Name, len(spec.CatCards), w.cat)
		}
		if spec.NumCols != w.num {
			t.Errorf("%s: num cols %d, want %d", spec.Name, spec.NumCols, w.num)
		}
		s := spec.Schema()
		if got := s.NumColumns(); got != w.before {
			t.Errorf("%s: before %d, want %d", spec.Name, got, w.before)
		}
		if got := s.OneHotWidth(); got != w.after {
			t.Errorf("%s: after %d, want %d", spec.Name, got, w.after)
		}
		incr := float64(s.OneHotWidth()) / float64(s.NumColumns())
		if math.Abs(incr-w.incr) > 0.01 {
			t.Errorf("%s: increase %.2fx, want %.2fx", spec.Name, incr, w.incr)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("abalone")
	if err != nil || s.Name != "abalone" {
		t.Fatalf("ByName failed: %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if len(Names()) != 9 {
		t.Fatalf("Names() = %v", Names())
	}
}

func TestGenerateDeterminism(t *testing.T) {
	spec, _ := ByName("loan")
	a := spec.Generate(200, 7)
	b := spec.Generate(200, 7)
	for i := range a.Data.Data {
		if a.Data.Data[i] != b.Data.Data[i] {
			t.Fatal("generation not deterministic for equal seeds")
		}
	}
	c := spec.Generate(200, 8)
	same := true
	for i := range a.Data.Data {
		if a.Data.Data[i] != c.Data.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateValidCategoryCodes(t *testing.T) {
	spec, _ := ByName("churn")
	tb := spec.Generate(300, 1)
	for ci, card := range spec.CatCards {
		for _, code := range tb.CatColumn(ci) {
			if code < 0 || code >= card {
				t.Fatalf("col %d: code %d out of range [0,%d)", ci, code, card)
			}
		}
	}
}

// TestPlantedStructure verifies the latent-factor model actually plants
// dependencies: the target column must be predictable from numeric columns
// (nonzero correlation ratio) and numeric columns must correlate with each
// other more than chance.
func TestPlantedStructure(t *testing.T) {
	spec, _ := ByName("cardio")
	tb := spec.Generate(4000, 3)
	nCat := len(spec.CatCards)
	target := tb.CatColumn(0)

	maxEta := 0.0
	for j := 0; j < spec.NumCols; j++ {
		eta := stats.CorrelationRatio(target, tb.NumColumn(nCat+j), spec.CatCards[0])
		if eta > maxEta {
			maxEta = eta
		}
	}
	if maxEta < 0.15 {
		t.Fatalf("target not predictable from numerics: max η = %v", maxEta)
	}

	maxCorr := 0.0
	for a := 0; a < spec.NumCols; a++ {
		for b := a + 1; b < spec.NumCols; b++ {
			c := math.Abs(stats.Pearson(tb.NumColumn(nCat+a), tb.NumColumn(nCat+b)))
			if c > maxCorr {
				maxCorr = c
			}
		}
	}
	if maxCorr < 0.2 {
		t.Fatalf("numeric columns uncorrelated: max |r| = %v", maxCorr)
	}
}

func TestSchemaColumnOrder(t *testing.T) {
	spec, _ := ByName("adult")
	s := spec.Schema()
	for i := 0; i < len(spec.CatCards); i++ {
		if s.Columns[i].Kind != tabular.Categorical {
			t.Fatalf("column %d should be categorical", i)
		}
	}
	for i := len(spec.CatCards); i < s.NumColumns(); i++ {
		if s.Columns[i].Kind != tabular.Numeric {
			t.Fatalf("column %d should be numeric", i)
		}
	}
}

// TestGenerateFingerprint pins every spec's Generate output bit for bit, so
// a change to how the generator runs cannot move a table it draws.
func TestGenerateFingerprint(t *testing.T) {
	want := map[string]uint64{
		"abalone":   0xa0827b7a95827210,
		"adult":     0x99aafa2b5438eebc,
		"cardio":    0x6565226ba8a95a2e,
		"churn":     0x364c445e6a12082f,
		"cover":     0x128bf834aea9ff10,
		"diabetes":  0x9e9f53eec44702b0,
		"heloc":     0x174c8904465e8e19,
		"intrusion": 0x4b35ee43984924f9,
		"loan":      0x18062af992e97e32,
	}
	for _, spec := range All {
		h := fnv.New64a()
		var b [8]byte
		for _, v := range spec.Generate(300, 5).Data.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
		if got := h.Sum64(); got != want[spec.Name] {
			t.Errorf("%s: Generate(300, 5) hashes to %#016x, want %#016x", spec.Name, got, want[spec.Name])
		}
	}
}

// TestGenerateAllocsFlat: Generate allocates per table and per column, never
// per row.
func TestGenerateAllocsFlat(t *testing.T) {
	spec, _ := ByName("churn")
	runtime.GC() // the first cycle starts the collector's workers, which count as allocations
	small := testing.AllocsPerRun(3, func() { spec.Generate(10, 1) })
	large := testing.AllocsPerRun(3, func() { spec.Generate(1000, 1) })
	if large != small {
		t.Fatalf("Generate allocates %v times for 10 rows and %v for 1000", small, large)
	}
}
