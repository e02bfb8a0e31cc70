package diffusion

import (
	"math/rand"

	"silofuse/internal/tensor"
)

// Batched sampling: K concurrent synthesis requests stack into one
// denoising ping-pong over a single batch matrix. Each request is a "lane"
// with its own rng (derive with LaneRng); the backbone forward and the
// eta=0 DDIM update are both row-independent, so lane k of the batch is
// bit-identical to a sequential SampleWithRng call with the same rng and
// row count — the property the batched-sampling equivalence test pins.

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
// matrix aliases a persistent workspace — callers that keep the rows must
// Clone. Under f32 precision the lanes fall back to sequential
// per-lane sampling (the float32 path has its own snapshot workflow).
func (m *Model) SampleBatchWithRngs(rngs []*rand.Rand, ns []int, steps int) *tensor.Matrix {
	if len(rngs) != len(ns) {
		panic("diffusion: SampleBatchWithRngs rngs/ns length mismatch")
	}
	if m.precision == "f32" {
		return m.sampleBatchSequential(rngs, ns, steps)
	}
	total := 0
	for _, n := range ns {
		total += n
	}
	dim := m.Net.In
	m.sbX = tensor.Ensure(m.sbX, total, dim)
	m.sbBuf = tensor.Ensure(m.sbBuf, total, dim)
	// Initial noise, one lane at a time: lane k's row block consumes
	// rngs[k] in row-major data order, exactly as Randn would for a
	// sequential n=ns[k] call (std=1, and ×1.0 is bitwise exact).
	lo := 0
	for k, cnt := range ns {
		data := m.sbX.Data[lo*dim : (lo+cnt)*dim]
		for i := range data {
			data[i] = rngs[k].NormFloat64()
		}
		lo += cnt
	}
	if m.sbSeq == nil || m.sbSteps != steps {
		m.sbSeq = m.G.S.StridedTimesteps(steps)
		m.sbSteps = steps
	}
	seq := m.sbSeq
	m.sbTs = tensor.EnsureInts(m.sbTs, total)
	x, buf := m.sbX, m.sbBuf
	for si, t := range seq {
		tPrev := 0
		if si+1 < len(seq) {
			tPrev = seq[si+1]
		}
		for i := range m.sbTs {
			m.sbTs[i] = t
		}
		epsPred := m.Predict(x, m.sbTs)
		// eta=0: sigma is exactly 0, so the rng is never consumed and nil
		// is safe — lane independence depends on it.
		m.G.ddimStep(nil, x, epsPred, buf, t, tPrev, 0)
		x, buf = buf, x
	}
	m.sbX, m.sbBuf = x, buf
	return x
}

// sampleBatchSequential is the f32 fallback: per-lane SampleWithRng calls
// (each takes its own float32 snapshot) stacked
// into one output matrix.
func (m *Model) sampleBatchSequential(rngs []*rand.Rand, ns []int, steps int) *tensor.Matrix {
	total := 0
	for _, n := range ns {
		total += n
	}
	out := tensor.New(total, m.Net.In)
	lo := 0
	for k, cnt := range ns {
		z := m.SampleWithRng(rngs[k], cnt, steps)
		copy(out.Data[lo*m.Net.In:(lo+cnt)*m.Net.In], z.Data)
		lo += cnt
	}
	return out
}
