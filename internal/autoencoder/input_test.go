//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package autoencoder

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"silofuse/internal/nn"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// surnameCard is the cardinality of Churn's surname column, the widest
// categorical in the paper's datasets.
const surnameCard = 2932

func mustTable(t testing.TB, cols []tabular.Column, rows [][]float64) *tabular.Table {
	t.Helper()
	tb, err := tabular.NewTable(tabular.MustSchema(cols), tensor.FromRows(rows))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// wideTable is a single 2932-way column whose rows include the first and
// the last code and repeat codes within any batch.
func wideTable(t testing.TB, rows int) *tabular.Table {
	rng := rand.New(rand.NewSource(31))
	data := make([][]float64, rows)
	for i := range data {
		switch {
		case i == 0 || i == rows/2:
			data[i] = []float64{0}
		case i == 1 || i == rows-1:
			data[i] = []float64{surnameCard - 1}
		case i%5 == 0:
			data[i] = []float64{17}
		default:
			data[i] = []float64{float64(rng.Intn(surnameCard))}
		}
	}
	return mustTable(t, []tabular.Column{{Name: "surname", Kind: tabular.Categorical, Cardinality: surnameCard}}, data)
}

// mixedTable interleaves numeric and categorical columns; its numeric
// column "mid" holds cells exactly equal to the column mean (2), which
// standardise to 0 and take the zero-skip.
func mixedTable(t testing.TB, rows int) *tabular.Table {
	rng := rand.New(rand.NewSource(32))
	data := make([][]float64, rows)
	for i := range data {
		data[i] = []float64{
			rng.NormFloat64(),
			float64(rng.Intn(5)),
			float64(1 + i%3), // 1, 2, 3 repeating: mean exactly 2 when rows divides by 3
			float64(rng.Intn(40)),
			rng.NormFloat64()*3 + 7,
		}
	}
	return mustTable(t, []tabular.Column{
		{Name: "x", Kind: tabular.Numeric},
		{Name: "five", Kind: tabular.Categorical, Cardinality: 5},
		{Name: "mid", Kind: tabular.Numeric},
		{Name: "forty", Kind: tabular.Categorical, Cardinality: 40},
		{Name: "y", Kind: tabular.Numeric},
	}, data)
}

func numericTable(t testing.TB, rows int) *tabular.Table {
	rng := rand.New(rand.NewSource(33))
	data := make([][]float64, rows)
	for i := range data {
		data[i] = []float64{rng.NormFloat64(), rng.Float64() * 100, float64(1 + i%3), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	cols := make([]tabular.Column, 6)
	for j := range cols {
		cols[j] = tabular.Column{Name: fmt.Sprintf("n%d", j), Kind: tabular.Numeric}
	}
	return mustTable(t, cols, data)
}

func sameBits(t *testing.T, what string, want, got *tensor.Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: element %d is %v, want %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// TestInputLayerMatchesDenseLinear pins the gather/scatter first layer to
// the bits of nn.Linear on Encoder.Transform's one-hot matrix — output,
// weight gradient and bias gradient, cold and warm — with the dense kernels
// running serially and on the pool.
func TestInputLayerMatchesDenseLinear(t *testing.T) {
	cases := []struct {
		name   string
		table  *tabular.Table
		hidden int
	}{
		{"2932-way column", wideTable(t, 96), 256},
		{"mixed", mixedTable(t, 63), 37},
		{"numeric only", numericTable(t, 33), 16},
		{"one row", mixedTable(t, 63).Head(1), 8},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			// Fit the featuriser on the whole table and feed a batch of it,
			// as training does.
			enc := tabular.NewEncoder(c.table)
			batch := c.table
			if c.table.Rows() > 8 {
				batch = c.table.Head(c.table.Rows() - 3)
			}
			if c.name == "mixed" && enc.Mean[2] != 2 {
				t.Fatalf("mixed: column mid has mean %v, the test needs exactly 2", enc.Mean[2])
			}
			gather := newInputLayer(rand.New(rand.NewSource(34)), enc, c.hidden)
			dense := nn.NewLinear(rand.New(rand.NewSource(34)), enc.Width(), c.hidden)
			sameBits(t, c.name+": initial W", dense.W.Value, gather.W.Value)
			sameBits(t, c.name+": initial b", dense.B.Value, gather.B.Value)
			rng := rand.New(rand.NewSource(35))
			for round := 0; round < 2; round++ { // round 1: warm, dirty workspaces
				g := tensor.New(batch.Rows(), c.hidden).Randn(rng, 1)
				what := fmt.Sprintf("%s, procs %d, round %d", c.name, procs, round)
				sameBits(t, what+": output", dense.Forward(enc.Transform(batch), true), gather.Forward(batch.Data, true))
				dense.BackwardParams(g)
				gather.BackwardParams(g)
				sameBits(t, what+": W.Grad", dense.W.Grad, gather.W.Grad)
				sameBits(t, what+": b.Grad", dense.B.Grad, gather.B.Grad)
				nn.ZeroGrads(dense.Params())
				nn.ZeroGrads(gather.Params())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestBadCategoryCodeFailsLoudly: a table assembled around unchecked data
// (anything but tabular.NewTable) can hold a code outside its column's
// cardinality. The dense path used to light a neighbouring column's one-hot
// slot with it; both paths must now panic naming the column and the code.
func TestBadCategoryCodeFailsLoudly(t *testing.T) {
	good := mixedTable(t, 30)
	a := New(rand.New(rand.NewSource(36)), good, Config{Hidden: 16, Embed: 8, LR: 1e-3})
	for _, code := range []float64{5, -1, 2.5} {
		bad := good.SelectRows([]int{0, 1, 2})
		bad.Data.Set(1, 1, code) // column "five", whose slots 5.. belong to "mid"
		for name, fn := range map[string]func(){
			"TrainStep": func() { a.TrainStep(bad) },
			"Encode":    func() { a.Encode(bad) },
			"Transform": func() { a.Enc.Transform(bad) },
		} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, `"five"`) || !strings.Contains(msg, fmt.Sprint(code)) {
						t.Errorf("%s with code %v: want a panic naming the column and the code, got %q", name, code, msg)
					}
				}()
				fn()
			}()
		}
	}
}

// denseEncoder is the parent commit's encoder on a's weights: three Linear
// layers fed Encoder.Transform's one-hot matrix, with workspaces of its own.
func denseEncoder(a *Autoencoder) *nn.Sequential {
	mid, last := a.encoder.Layers[2].(*nn.Linear), a.encoder.Layers[4].(*nn.Linear)
	return nn.NewSequential(
		&nn.Linear{W: a.input.W, B: a.input.B}, &nn.GELU{},
		&nn.Linear{W: mid.W, B: mid.B}, &nn.GELU{},
		&nn.Linear{W: last.W, B: last.B},
	)
}

// stepMallocs is the median over batches of heap allocations per fn call,
// each call made right after prepare (testing.AllocsPerRun would warm fn up
// first and hide a reallocation): a batch of prepare-then-fn pairs less a
// batch of prepare alone, each batch between one pair of MemStats reads. A
// pooled matmul is not allocation-free by construction: its call state
// comes from a sync.Pool, which every GC cycle empties, and its wait takes a
// runtime sudog on one P and returns it on another, so until the per-P
// sudog caches have filled and started passing sudogs back through the
// central one, a dispatch may allocate. prepare's own garbage would start
// cycles inside the measurement, so the collector is off while it runs;
// otherwise it goes as tensor.TestPooledDispatchAllocs does — collect, warm
// (fn alone, long enough for the caches to settle), judge the median batch.
// A stray refill cannot move a median; a reallocation on every call reads
// at least 1.0 in every batch.
func stepMallocs(prepare, fn func()) float64 {
	const warmup, batches, calls = 300, 5, 10
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range warmup {
		fn()
	}
	var ms0, ms1 runtime.MemStats
	batch := func(step func()) float64 {
		runtime.ReadMemStats(&ms0)
		for range calls {
			prepare()
			step()
		}
		runtime.ReadMemStats(&ms1)
		return float64(ms1.Mallocs - ms0.Mallocs)
	}
	var perCall [batches]float64
	for k := range perCall {
		perCall[k] = (batch(fn) - batch(func() {})) / calls
	}
	sort.Float64s(perCall[:])
	return perCall[batches/2]
}

// TestEncodeChunksMatchWholeTable: Encode walks the table in chunks of the
// training batch shape. Its latents must equal the parent's one-batch
// Encode bit for bit at every position of the table length relative to the
// chunk, the encoder's workspaces must stay batch-sized (a table-sized one
// would stay live for the life of the model — what made a fitted adult
// model hold hundreds of MB), and the training step after an Encode must
// find every workspace as it left it.
func TestEncodeChunksMatchWholeTable(t *testing.T) {
	const batch = 64
	full := mixedTable(t, 2001)
	a := New(rand.New(rand.NewSource(37)), full, Config{Hidden: 32, Embed: 8, LR: 1e-3})
	ref := denseEncoder(a)
	mini := full.Head(batch)
	check := func(chunk int) {
		t.Helper()
		for _, rows := range []int{0, 1, chunk - 1, chunk, chunk + 1, 2001} {
			tb := full.Head(rows)
			got := a.Encode(tb)
			sameBits(t, fmt.Sprintf("chunk %d, %d rows", chunk, rows), ref.Forward(a.Enc.Transform(tb), false), got)
			if rows > 0 && a.input.out.Rows != chunk {
				t.Fatalf("chunk %d, %d rows: encoder workspace has %d rows after Encode", chunk, rows, a.input.out.Rows)
			}
		}
	}
	check(encodeChunk) // before any training step
	a.Train(full, 3, batch)
	check(batch)
	for _, rows := range []int{1, batch + 1, 2001} {
		tb := full.Head(rows)
		if n := stepMallocs(func() { a.Encode(tb) }, func() { a.TrainStep(mini) }); n >= 0.5 {
			t.Errorf("the training step after Encode(%d rows) allocates %v times in the median batch, want 0", rows, n)
		}
	}
	a.ReleaseTraining()
	check(encodeChunk) // a released model has no batch shape to follow, like a fresh one
}

// TestTrainStepWarmAllocs pins the whole autoencoder step — gather input
// layer, pooled softmax-CE rows, scatter backward, Adam sweep — to zero
// allocations once warm, on the wide column and on a mixed schema.
func TestTrainStepWarmAllocs(t *testing.T) {
	for name, tb := range map[string]*tabular.Table{"2932-way column": wideTable(t, 64), "mixed": mixedTable(t, 64)} {
		a := New(rand.New(rand.NewSource(38)), tb, Config{Hidden: 32, Embed: 8, LR: 1e-3})
		a.TrainStep(tb)
		if allocs := testing.AllocsPerRun(10, func() { a.TrainStep(tb) }); allocs != 0 {
			t.Errorf("%s: warm TrainStep performs %v allocs, want 0", name, allocs)
		}
	}
}

// BenchmarkAETrainStepWide is one training step of the straggler client of
// the churn fit: a single 2932-way column, batch 256, hidden 256.
func BenchmarkAETrainStepWide(b *testing.B) {
	tb := wideTable(b, 256)
	a := New(rand.New(rand.NewSource(39)), tb, testConfig(1))
	a.TrainStep(tb)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.TrainStep(tb)
	}
}
