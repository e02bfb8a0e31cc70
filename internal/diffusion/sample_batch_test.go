//silofuse:bitwise-ok batched-vs-sequential sampling equality is a bitwise contract
package diffusion

import (
	"math"
	"math/rand"
	"testing"

	"silofuse/internal/tensor"
)

// batchSampleModel builds a briefly trained small model so sampling runs
// over non-trivial weights (EMA on and folded in, as a fitted coordinator's).
func batchSampleModel(t *testing.T, seed int64) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := ModelConfig{Dim: 4, Hidden: 32, Depth: 2, TimeDim: 8, T: 50, LR: 1e-3, EMADecay: 0.99}
	m := NewModel(rng, cfg)
	x0 := tensor.New(48, cfg.Dim).Randn(rng, 1)
	for i := 0; i < 30; i++ {
		m.TrainStep(x0)
	}
	m.ReleaseTraining()
	return m
}

// TestSampleBatchMatchesSequential pins the batched-sampling property: K
// stacked lanes drawn in one denoising ping-pong are row-for-row
// bit-identical to K sequential SampleWithRng calls with the same per-lane
// rngs — the backbone forward and the eta=0 DDIM update are
// row-independent, so stacking is a pure scheduling choice.
func TestSampleBatchMatchesSequential(t *testing.T) {
	m := batchSampleModel(t, 31)
	const seed, steps = 77, 20
	ns := []int{3, 5, 2}

	rngs := make([]*rand.Rand, len(ns))
	for k := range rngs {
		rngs[k] = LaneRng(seed, k)
	}
	batched := m.SampleBatchWithRngs(rngs, ns, steps).Clone()

	lo := 0
	for k, cnt := range ns {
		seq := m.SampleWithRng(LaneRng(seed, k), cnt, steps)
		for i := 0; i < cnt; i++ {
			for j := 0; j < seq.Cols; j++ {
				b, s := batched.At(lo+i, j), seq.At(i, j)
				if math.Float64bits(b) != math.Float64bits(s) {
					t.Fatalf("lane %d row %d col %d: batched %v, sequential %v", k, i, j, b, s)
				}
			}
		}
		lo += cnt
	}
	if lo != batched.Rows {
		t.Fatalf("batched output has %d rows, lanes sum to %d", batched.Rows, lo)
	}
}

// TestSampleBatchSingleLaneMatchesSample checks the one-lane case that
// Model.Sample runs against Gaussian.Sample, the same loop over fresh
// buffers with the model as predictor: the bits must agree, also after a
// call of another shape has resized the model's sampling workspace.
func TestSampleBatchSingleLaneMatchesSample(t *testing.T) {
	m := batchSampleModel(t, 33)
	const steps = 15
	for _, n := range []int{6, 9, 6} {
		got := m.SampleWithRng(rand.New(rand.NewSource(5)), n, steps)
		want := m.G.Sample(rand.New(rand.NewSource(5)), m, n, m.Net.In, steps, 0)
		if got.Rows != n || got.Cols != want.Cols {
			t.Fatalf("n=%d: shape %dx%d, want %dx%d", n, got.Rows, got.Cols, n, want.Cols)
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("n=%d element %d: model %v, gaussian %v", n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestSampleBatchWarmAllocs pins the zero-allocation steady state of the
// batched sampler: after the first call warms the ping-pong workspaces and
// the cached timestep sequence, a same-shape batched call touches the heap
// zero times.
func TestSampleBatchWarmAllocs(t *testing.T) {
	m := batchSampleModel(t, 35)
	const steps = 20
	ns := []int{3, 5, 2}
	rngs := make([]*rand.Rand, len(ns))
	for k := range rngs {
		rngs[k] = rand.New(rand.NewSource(int64(k)))
	}
	m.SampleBatchWithRngs(rngs, ns, steps)

	allocs := testing.AllocsPerRun(10, func() {
		m.SampleBatchWithRngs(rngs, ns, steps)
	})
	if allocs != 0 {
		t.Fatalf("warm SampleBatchWithRngs performs %v allocs, want 0", allocs)
	}
}

// TestLaneRngDerivation pins the stream-separation properties batched
// sampling relies on: distinct lanes of one seed land on distinct streams,
// the same lane under another seed does too, and the same (seed, lane)
// always reproduces the same stream.
func TestLaneRngDerivation(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(5); seed < 8; seed++ {
		for lane := 0; lane < 16; lane++ {
			v := LaneRng(seed, lane).Int63()
			if seen[v] {
				t.Fatalf("lane rng collision: (seed %d, lane %d) repeats an earlier pair's draw %d", seed, lane, v)
			}
			seen[v] = true
			if again := LaneRng(seed, lane).Int63(); again != v {
				t.Fatalf("lane rng (seed %d, lane %d) is not reproducible: %d then %d", seed, lane, v, again)
			}
		}
	}
}
