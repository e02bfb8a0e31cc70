//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package autoencoder

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"silofuse/internal/datagen"
	"silofuse/internal/nn"
	"silofuse/internal/obs"
	"silofuse/internal/stats"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

func loanTable(t *testing.T, rows int) *tabular.Table {
	t.Helper()
	spec, err := datagen.ByName("loan")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(rows, 42)
}

// testConfig is the CPU-scaled configuration the tests train at.
func testConfig(latent int) Config {
	return Config{Hidden: 256, Embed: 32, Latent: latent, LR: 1e-3}
}

func TestNewDefaultsLatentToFeatureCount(t *testing.T) {
	tb := loanTable(t, 100)
	a := New(rand.New(rand.NewSource(1)), tb, Config{Hidden: 32, Embed: 8, LR: 1e-3})
	if a.LatentDim() != tb.Schema.NumColumns() {
		t.Fatalf("latent dim = %d, want %d", a.LatentDim(), tb.Schema.NumColumns())
	}
}

func TestEncodeShape(t *testing.T) {
	tb := loanTable(t, 50)
	a := New(rand.New(rand.NewSource(2)), tb, testConfig(6))
	z := a.Encode(tb)
	if z.Rows != 50 || z.Cols != 6 {
		t.Fatalf("latent shape %v", z)
	}
}

func TestDecodeRejectsWrongWidth(t *testing.T) {
	tb := loanTable(t, 20)
	a := New(rand.New(rand.NewSource(3)), tb, testConfig(6))
	z := a.Encode(tb)
	if _, err := a.Decode(z.SliceCols(0, 3), false, rand.New(rand.NewSource(4))); err == nil {
		t.Fatal("expected width error")
	}
}

func TestDecodeProducesValidTable(t *testing.T) {
	tb := loanTable(t, 60)
	a := New(rand.New(rand.NewSource(5)), tb, testConfig(0))
	z := a.Encode(tb)
	dec, err := a.Decode(z, true, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Rows() != 60 {
		t.Fatalf("rows = %d", dec.Rows())
	}
	// NewTable inside Decode validates category codes; additionally check
	// numeric values are finite.
	for _, v := range dec.Data.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite decoded value")
		}
	}
}

// TestReconstruction trains the autoencoder and checks it reconstructs both
// categorical codes and numeric values well — the paper's step 1.
func TestReconstruction(t *testing.T) {
	tb := loanTable(t, 800)
	rng := rand.New(rand.NewSource(7))
	cfg := Config{Hidden: 128, Embed: 32, Latent: tb.Schema.NumColumns(), LR: 2e-3}
	a := New(rng, tb, cfg)
	first := a.TrainStep(tb.Head(256))
	final := a.Train(tb, 600, 128)
	if final >= first {
		t.Fatalf("loss did not decrease: first %v, final %v", first, final)
	}

	dec, err := a.Decode(a.Encode(tb), false, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Categorical accuracy well above chance on the binary target column.
	codesIn := tb.CatColumn(0)
	codesOut := dec.CatColumn(0)
	correct := 0
	for i := range codesIn {
		if codesIn[i] == codesOut[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(codesIn)); acc < 0.85 {
		t.Fatalf("categorical reconstruction accuracy %v", acc)
	}
	// Numeric columns correlate strongly with their reconstructions.
	nCat := len(tb.Schema.CategoricalIndexes())
	for j := nCat; j < tb.Schema.NumColumns(); j++ {
		r := stats.Pearson(tb.NumColumn(j), dec.NumColumn(j))
		if r < 0.7 {
			t.Fatalf("numeric column %d reconstruction correlation %v", j, r)
		}
	}
}

// TestLatentsMaskValues: encoded latents must not simply copy input columns
// — the paper's privacy argument needs latents that are non-trivial
// transforms. We check no latent dimension is an exact copy of a raw
// column.
func TestLatentsMaskValues(t *testing.T) {
	tb := loanTable(t, 300)
	rng := rand.New(rand.NewSource(8))
	a := New(rng, tb, testConfig(0))
	a.Train(tb, 200, 64)
	z := a.Encode(tb)
	for zc := 0; zc < z.Cols; zc++ {
		lat := z.Col(zc)
		for col := 0; col < tb.Schema.NumColumns(); col++ {
			raw := tb.Data.Col(col)
			same := true
			for i := range lat {
				if math.Abs(lat[i]-raw[i]) > 1e-6 {
					same = false
					break
				}
			}
			if same {
				t.Fatalf("latent %d is an exact copy of column %d", zc, col)
			}
		}
	}
}

func TestDeterministicTraining(t *testing.T) {
	tb := loanTable(t, 100)
	a1 := New(rand.New(rand.NewSource(9)), tb, testConfig(0))
	a2 := New(rand.New(rand.NewSource(9)), tb, testConfig(0))
	l1 := a1.Train(tb, 50, 32)
	l2 := a2.Train(tb, 50, 32)
	if l1 != l2 {
		t.Fatalf("training not deterministic: %v vs %v", l1, l2)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tb := loanTable(t, 150)
	a := New(rand.New(rand.NewSource(20)), tb, testConfig(0))
	a.Train(tb, 100, 64)

	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b := New(rand.New(rand.NewSource(99)), tb, testConfig(0))
	if err := nn.LoadParams(&buf, b.Params()); err != nil {
		t.Fatal(err)
	}
	za := a.Encode(tb)
	zb := b.Encode(tb)
	for i := range za.Data {
		if za.Data[i] != zb.Data[i] {
			t.Fatal("loaded autoencoder produces different latents")
		}
	}
}

func TestLoadWrongArchitecture(t *testing.T) {
	tb := loanTable(t, 100)
	a := New(rand.New(rand.NewSource(21)), tb, testConfig(0))
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	other := New(rand.New(rand.NewSource(22)), tb, Config{Hidden: 32, Embed: 8, LR: 1e-3})
	if err := nn.LoadParams(&buf, other.Params()); err == nil {
		t.Fatal("expected architecture mismatch error")
	}
}

// columnwiseReconstructionLoss is the formulation reconstructionLoss
// replaced: slice each head's columns out, run the matrix-level nn losses,
// copy the gradients back column by column.
func columnwiseReconstructionLoss(a *Autoencoder, out *tensor.Matrix, batch *tabular.Table) (float64, *tensor.Matrix) {
	grad := tensor.New(out.Rows, out.Cols)
	total := 0.0
	for _, sp := range a.spans {
		if sp.kind == tabular.Numeric {
			target := tensor.New(out.Rows, 1)
			for i, v := range batch.NumColumn(sp.col) {
				target.Data[i] = (v - a.Enc.Mean[sp.col]) / a.Enc.Std[sp.col]
			}
			loss, gMean, gLV := nn.GaussianNLLLoss(out.SliceCols(sp.lo, sp.lo+1), out.SliceCols(sp.lo+1, sp.hi), target)
			total += loss
			grad.SetCol(sp.lo, gMean.Col(0))
			grad.SetCol(sp.lo+1, gLV.Col(0))
		} else {
			loss, g := nn.CrossEntropyLoss(out.SliceCols(sp.lo, sp.hi), batch.CatColumn(sp.col))
			total += loss
			for k := 0; k < g.Cols; k++ {
				grad.SetCol(sp.lo+k, g.Col(k))
			}
		}
	}
	return total, grad
}

// TestReconstructionLossRowwise pins the row-wise, workspace-backed loss to
// the bits of the column-wise formulation — head outputs scaled so some
// log-variances leave the clamp — and pins its warm path to zero
// allocations. The 2932-way head at 32 rows clears tensor's parallel
// threshold, so with four workers its softmax-CE rows run on the pool and
// the per-row terms are summed afterwards; at 16 rows and on the loan
// schema they run inline.
func TestReconstructionLossRowwise(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for name, tb := range map[string]*tabular.Table{"loan": loanTable(t, 64), "wide 32": wideTable(t, 32), "wide 16": wideTable(t, 16)} {
			a := New(rand.New(rand.NewSource(11)), tb, testConfig(0))
			rng := rand.New(rand.NewSource(12))
			width := a.spans[len(a.spans)-1].hi
			for round := 0; round < 3; round++ {
				out := tensor.New(tb.Rows(), width).Randn(rng, 6)
				wantLoss, wantGrad := columnwiseReconstructionLoss(a, out, tb)
				gotLoss, gotGrad := a.reconstructionLoss(out, tb) // rounds 1, 2: dirty workspace
				if wantLoss != gotLoss {
					t.Fatalf("%s, procs %d, round %d: loss %v, column-wise reference %v", name, procs, round, gotLoss, wantLoss)
				}
				sameBits(t, fmt.Sprintf("%s, procs %d, round %d: grad", name, procs, round), wantGrad, gotGrad)
			}
			out := tensor.New(tb.Rows(), width).Randn(rng, 1)
			if allocs := testing.AllocsPerRun(20, func() { a.reconstructionLoss(out, tb) }); allocs != 0 {
				t.Fatalf("%s: warm reconstructionLoss performs %v allocs, want 0", name, allocs)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestDecodeMatchesMatrixSoftmax pins Decode's one-scratch-row softmax to
// the formulation it replaced — slice each categorical head's logits out,
// softmax the matrix, sample or arg-max per row — including the order of
// rng draws (heads in schema order, rows within a head).
func TestDecodeMatchesMatrixSoftmax(t *testing.T) {
	tb := loanTable(t, 40)
	a := New(rand.New(rand.NewSource(13)), tb, testConfig(0))
	z := tensor.New(25, a.LatentDim()).Randn(rand.New(rand.NewSource(14)), 1)
	for _, sample := range []bool{false, true} {
		got, err := a.Decode(z, sample, rand.New(rand.NewSource(15)))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(15))
		out := a.decoder.Forward(z, false)
		want := tensor.New(z.Rows, a.Schema.NumColumns())
		for _, sp := range a.spans {
			if sp.kind == tabular.Numeric {
				for i := 0; i < z.Rows; i++ {
					v := out.At(i, sp.lo)
					if sample {
						v += math.Exp(math.Max(-10, math.Min(10, out.At(i, sp.lo+1)))/2) * rng.NormFloat64()
					}
					want.Set(i, sp.col, v*a.Enc.Std[sp.col]+a.Enc.Mean[sp.col])
				}
				continue
			}
			probs := nn.Softmax(out.SliceCols(sp.lo, sp.hi))
			for i := 0; i < z.Rows; i++ {
				if sample {
					want.Set(i, sp.col, float64(sampleIndex(rng, probs.Row(i))))
				} else {
					want.Set(i, sp.col, float64(argmax(probs.Row(i))))
				}
			}
		}
		sameBits(t, fmt.Sprintf("decode, sample %v", sample), want, got.Data)
	}
}

// TestTrainShortRunReturnsLastLoss: a run of fewer than ten iterations
// averages its last step, where 10% of the run used to round down to no step
// and Train returned 0. For k = 1…9 Train returns the loss the Recorder saw
// last: finite and positive.
func TestTrainShortRunReturnsLastLoss(t *testing.T) {
	tb := loanTable(t, 60)
	a := New(rand.New(rand.NewSource(31)), tb, Config{Hidden: 32, Embed: 8, LR: 1e-3})
	a.Rec = obs.NewRecorder()
	for k := 1; k <= 9; k++ {
		got := a.Train(tb, k, 16)
		last := a.Rec.Reg.Gauge("ae_loss").Value()
		if got != last || !(got > 0) || math.IsInf(got, 0) {
			t.Errorf("Train(%d) = %v, last step's loss %v", k, got, last)
		}
	}
}
