package diffusion

import (
	"math/rand"

	"silofuse/internal/tensor"
)

// Lanes: a batch of sampling requests stacks into one denoising loop over
// a single batch matrix. Each request is a "lane" with its own rng (derive
// with LaneRng); the backbone forward and the eta=0 DDIM update are both
// row-independent, so lane k of the batch is bit-identical to the same lane
// sampled alone. Model.SampleWithRng is the one-lane case.

// laneTag keeps the lane-rng derivation apart from any other stream a
// caller derives from the same seed.
const laneTag uint64 = 0x4c414e4553414d50 // "LANESAMP"

// mix64 is the splitmix64 finaliser — the same full-avalanche mix the chaos
// bus uses for fault decisions (internal/silo/chaos.go); duplicated here
// because diffusion cannot import silo.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// LaneRng derives the rng for one batched-sampling lane. The chain of mixes
// is order-sensitive, so distinct (seed, lane) pairs land on unrelated
// streams.
func LaneRng(seed int64, lane int) *rand.Rand {
	h := mix64(uint64(seed) ^ laneTag)
	h = mix64(h ^ uint64(lane))
	return rand.New(rand.NewSource(int64(h)))
}

// SampleBatchWithRngs draws len(rngs) lanes in one stacked denoising loop:
// lane k contributes ns[k] rows filled from rngs[k], and the returned
// matrix holds the lanes vertically in lane order. Deterministic DDIM
// (eta=0) only, which is the repository's sole sampling mode; the lanes
// would couple through a shared noise stream otherwise. The returned
// matrix aliases the model's sampling workspace, overwritten by the next
// call — callers that keep the rows must Clone. Under f32 precision each
// lane runs the float32 loop on its own.
func (m *Model) SampleBatchWithRngs(rngs []*rand.Rand, ns []int, steps int) *tensor.Matrix {
	if len(rngs) != len(ns) {
		panic("diffusion: SampleBatchWithRngs rngs/ns length mismatch")
	}
	total := 0
	for _, n := range ns {
		total += n
	}
	dim := m.Net.In
	m.sampleX = tensor.Ensure(m.sampleX, total, dim)
	if m.precision == "f32" {
		lo := 0
		for k, cnt := range ns {
			copy(m.sampleX.Data[lo*dim:(lo+cnt)*dim], tensor.To64(m.sample32(rngs[k], cnt, steps)).Data)
			lo += cnt
		}
		return m.sampleX
	}
	m.sampleBuf = tensor.Ensure(m.sampleBuf, total, dim)
	// Initial noise, one lane at a time: lane k's row block consumes
	// rngs[k] in row-major data order, exactly as Randn would for the lane
	// alone (std=1, and ×1.0 is bitwise exact).
	lo := 0
	for k, cnt := range ns {
		data := m.sampleX.Data[lo*dim : (lo+cnt)*dim]
		for i := range data {
			data[i] = rngs[k].NormFloat64()
		}
		lo += cnt
	}
	if m.sampleSeq == nil || m.sampleSteps != steps {
		m.sampleSeq = m.G.S.StridedTimesteps(steps)
		m.sampleSteps = steps
	}
	m.sampleTs = tensor.EnsureInts(m.sampleTs, total)
	// eta=0: the rng is never read, so nil is safe — lane independence
	// depends on it.
	m.sampleX, m.sampleBuf = m.G.denoise(nil, m, m.sampleX, m.sampleBuf, m.sampleTs, m.sampleSeq, 0)
	return m.sampleX
}
