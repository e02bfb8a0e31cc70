// Package datagen simulates the nine benchmark datasets of the paper's
// evaluation (Table II). Real UCI/Kaggle files are unavailable offline, so
// each dataset is replaced by a seeded synthetic generator with exactly the
// paper's schema — row count, number of categorical and numeric features,
// and per-column cardinalities chosen so the one-hot expansion sizes match
// Table II's "#Aft." column (including Churn's 211.71× blow-up).
//
// Data is drawn from a latent-factor model: a low-dimensional Gaussian
// factor z drives every column, giving the cross-column correlation
// structure that resemblance, utility and the privacy attacks all measure.
// The first categorical column acts as a strongly predictable target so the
// downstream-utility metric is meaningful.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// Spec describes one simulated benchmark dataset.
type Spec struct {
	Name      string
	PaperRows int   // row count reported in Table II
	CatCards  []int // cardinality per categorical column
	NumCols   int   // number of numeric columns
	Factors   int   // latent factor dimension
	NoiseStd  float64
	Seed      int64 // default generation seed
}

// All lists the nine benchmark datasets in the paper's alphabetical order.
// Cardinalities are chosen so that Σcards + NumCols equals Table II's
// one-hot size exactly.
var All = []Spec{
	{Name: "abalone", PaperRows: 4177, CatCards: []int{3, 28}, NumCols: 8, Factors: 4, NoiseStd: 0.35, Seed: 101},
	{Name: "adult", PaperRows: 48842, CatCards: []int{2, 9, 16, 7, 15, 6, 5, 41, 2}, NumCols: 5, Factors: 5, NoiseStd: 0.4, Seed: 102},
	{Name: "cardio", PaperRows: 70000, CatCards: []int{2, 2, 2, 2, 2, 3, 3}, NumCols: 5, Factors: 4, NoiseStd: 0.35, Seed: 103},
	{Name: "churn", PaperRows: 10000, CatCards: []int{2, 2, 2, 3, 3, 7, 7, 2932}, NumCols: 6, Factors: 5, NoiseStd: 0.4, Seed: 104},
	{Name: "cover", PaperRows: 581012, CatCards: coverCards(), NumCols: 10, Factors: 6, NoiseStd: 0.4, Seed: 105},
	{Name: "diabetes", PaperRows: 768, CatCards: []int{2, 17}, NumCols: 7, Factors: 4, NoiseStd: 0.35, Seed: 106},
	{Name: "heloc", PaperRows: 10250, CatCards: []int{8, 8, 8, 9, 9, 9, 24, 24, 32, 32, 32, 32}, NumCols: 12, Factors: 6, NoiseStd: 0.45, Seed: 107},
	{Name: "intrusion", PaperRows: 22544, CatCards: intrusionCards(), NumCols: 20, Factors: 6, NoiseStd: 0.45, Seed: 108},
	{Name: "loan", PaperRows: 5000, CatCards: []int{2, 2, 2, 2, 2, 3, 4}, NumCols: 6, Factors: 4, NoiseStd: 0.35, Seed: 109},
}

// coverCards returns Cover's 45 categorical cardinalities: 43 binary
// (wilderness/soil indicator flags) plus two 4-way columns, summing to 94.
func coverCards() []int {
	cards := make([]int, 45)
	for i := 0; i < 43; i++ {
		cards[i] = 2
	}
	cards[43] = 4
	cards[44] = 4
	return cards
}

// intrusionCards returns Intrusion's 22 cardinalities (protocol=3,
// service=66, flag=11, sixteen binary indicators, three wide columns),
// summing to 248.
func intrusionCards() []int {
	cards := []int{3, 66, 11}
	for i := 0; i < 16; i++ {
		cards = append(cards, 2)
	}
	return append(cards, 40, 46, 50)
}

// ByName looks a spec up by dataset name.
func ByName(name string) (Spec, error) {
	for _, s := range All {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("datagen: unknown dataset %q", name)
}

// Names returns every dataset name in order.
func Names() []string {
	out := make([]string, len(All))
	for i, s := range All {
		out[i] = s.Name
	}
	return out
}

// Schema builds the tabular schema: categorical columns first ("c00"…),
// then numeric ("n00"…), mirroring the paper's per-type feature grouping.
func (s Spec) Schema() *tabular.Schema {
	var cols []tabular.Column
	for i, k := range s.CatCards {
		cols = append(cols, tabular.Column{Name: fmt.Sprintf("c%02d", i), Kind: tabular.Categorical, Cardinality: k})
	}
	for i := 0; i < s.NumCols; i++ {
		cols = append(cols, tabular.Column{Name: fmt.Sprintf("n%02d", i), Kind: tabular.Numeric})
	}
	return tabular.MustSchema(cols)
}

// Generate draws rows samples with the given seed. The latent-factor model
// parameters are fixed by the spec's own Seed, so different generation
// seeds draw different samples from the *same* underlying distribution —
// exactly what train/test splits and "fresh sample" baselines require.
// Generation is deterministic in (spec, rows, seed).
func (s Spec) Generate(rows int, seed int64) *tabular.Table {
	paramRng := rand.New(rand.NewSource(s.Seed))
	rng := rand.New(rand.NewSource(seed))
	schema := s.Schema()
	nCat := len(s.CatCards)
	d := schema.NumColumns()

	// Model parameters, fixed per dataset.
	catW := make([][]float64, nCat) // flattened (card x factors) logit weights
	catB := make([][]float64, nCat)
	for c, card := range s.CatCards {
		catW[c] = randSlice(paramRng, card*s.Factors, 1.2)
		catB[c] = randSlice(paramRng, card, 0.8)
	}
	// The first categorical column is the downstream target: sharpen its
	// dependence on the factors so it is predictable from other features.
	for i := range catW[0] {
		catW[0][i] *= 2.5
	}
	numW := make([][]float64, s.NumCols)
	for j := range numW {
		numW[j] = randSlice(paramRng, s.Factors, 1)
	}

	data := tensor.New(rows, d)
	z := make([]float64, s.Factors)
	logits := make([][]float64, nCat)
	for c, card := range s.CatCards {
		logits[c] = make([]float64, card)
	}
	for i := 0; i < rows; i++ {
		for f := range z {
			z[f] = rng.NormFloat64()
		}
		row := data.Row(i)
		for c := range s.CatCards {
			row[c] = float64(sampleCategory(rng, logits[c], catW[c], catB[c], z, s.Factors))
		}
		for j := 0; j < s.NumCols; j++ {
			raw := dot(numW[j], z) + s.NoiseStd*rng.NormFloat64()
			row[nCat+j] = numericTransform(j, raw)
		}
	}
	t, err := tabular.NewTable(schema, data)
	if err != nil {
		panic(fmt.Sprintf("datagen: internal inconsistency: %v", err))
	}
	return t
}

func randSlice(rng *rand.Rand, n int, std float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64() * std
	}
	return out
}

func dot(w, z []float64) float64 {
	s := 0.0
	for i := range w {
		s += w[i] * z[i]
	}
	return s
}

// sampleCategory draws from softmax(Wz + b) over len(logits) choices,
// using logits as scratch.
func sampleCategory(rng *rand.Rand, logits, w, b, z []float64, factors int) int {
	max := math.Inf(-1)
	for k := range logits {
		l := b[k] + dot(w[k*factors:(k+1)*factors], z)
		logits[k] = l
		if l > max {
			max = l
		}
	}
	tensor.ExpSubInto(logits, logits, max) // math.Exp's bits, on the lane kernel where there is one
	sum := 0.0
	for _, e := range logits {
		sum += e
	}
	u := rng.Float64() * sum
	acc := 0.0
	for k, e := range logits {
		acc += e
		if u <= acc {
			return k
		}
	}
	return len(logits) - 1
}

// numericTransform applies a mild monotone nonlinearity that varies by
// column index, giving a mix of symmetric, skewed and heavy-tailed marginals
// like real tabular data.
func numericTransform(j int, v float64) float64 {
	switch j % 3 {
	case 0:
		return v
	case 1:
		return math.Exp(v / 2) // log-normal-ish skew
	default:
		return v * math.Abs(v) / 2 // signed quadratic: heavier tails
	}
}
