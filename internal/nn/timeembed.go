package nn

import (
	"math"
	"sync"
)

// The geometric frequency ladder depends only on the embedding width, so it
// is computed once per dim and cached for the life of the process instead
// of paying a math.Exp per element per row per step.
var (
	freqMu    sync.Mutex
	freqCache = map[int][]float64{}
)

func timestepFreqs(half int) []float64 {
	freqMu.Lock()
	defer freqMu.Unlock()
	if f, ok := freqCache[half]; ok {
		return f
	}
	f := make([]float64, half)
	for i := 0; i < half; i++ {
		f[i] = math.Exp(-math.Log(10000) * float64(i) / float64(half))
	}
	freqCache[half] = f
	return f
}

// SinusoidalEmbedding fills out with the transformer-style sinusoidal
// position features for timestep t: pairs of (sin, cos) at geometrically
// spaced frequencies. dim must be even.
func SinusoidalEmbedding(t int, out []float64) {
	half := len(out) / 2
	freqs := timestepFreqs(half)
	tf := float64(t)
	for i, freq := range freqs {
		out[i] = math.Sin(tf * freq)
		out[half+i] = math.Cos(tf * freq)
	}
}
