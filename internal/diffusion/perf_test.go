//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package diffusion

import (
	"math/rand"
	"testing"

	"silofuse/internal/tensor"
)

// perfModel builds a small model at the fast-scale backbone shape with
// dropout off — dropout draws per-element randomness but does not allocate,
// so leaving it out keeps the test focused without changing what is pinned.
func perfModel(seed int64) (*Model, *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	cfg := ModelConfig{Dim: 8, Hidden: 64, Depth: 3, TimeDim: 16, T: 100, LR: 1e-3}
	m := NewModel(rng, cfg)
	x0 := tensor.New(32, cfg.Dim).Randn(rng, 1)
	return m, x0
}

// TestTrainStepSteadyStateAllocs pins the headline contract of the
// zero-allocation hot path: once the model's workspaces are warm, a full
// optimisation step (noise, forward, MSE, backward, Adam) touches the heap
// zero times.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	m, x0 := perfModel(48)
	for i := 0; i < 3; i++ {
		m.TrainStep(x0)
	}
	if allocs := testing.AllocsPerRun(20, func() { m.TrainStep(x0) }); allocs != 0 {
		t.Fatalf("warm TrainStep performs %v allocs, want 0", allocs)
	}
}

// TestSamplePerStepAllocs pins sampling's allocations: once the model's
// sampling workspace is warm, a call allocates exactly the rows it returns
// (one Clone) — nothing per denoising step and nothing per call beyond the
// result.
func TestSamplePerStepAllocs(t *testing.T) {
	m, _ := perfModel(49)
	const n, steps = 32, 50
	out := m.SampleWithRng(rand.New(rand.NewSource(1)), n, steps)
	result := testing.AllocsPerRun(5, func() { out.Clone() })

	rng := rand.New(rand.NewSource(2))
	if perCall := testing.AllocsPerRun(5, func() { m.SampleWithRng(rng, n, steps) }); perCall != result {
		t.Fatalf("warm SampleWithRng performs %v allocs over %d steps, want %v (its result)", perCall, steps, result)
	}
}

func BenchmarkTrainStep(b *testing.B) {
	m, x0 := perfModel(50)
	m.TrainStep(x0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(x0)
	}
}

// BenchmarkSampleStep measures one DDIM denoising step by timing a full
// Sample call and dividing the work across its steps via b.N scaling.
func BenchmarkSampleStep(b *testing.B) {
	m, _ := perfModel(51)
	const n, steps = 32, 50
	rng := rand.New(rand.NewSource(3))
	m.SampleWithRng(rng, n, steps)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += steps {
		m.SampleWithRng(rng, n, steps)
	}
}
