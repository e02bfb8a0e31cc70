package obs

import (
	"math"
	"sync"
)

// Histogram geometry: exponential buckets covering [histMin, histMax) with
// ~10% relative width, plus an underflow bucket (index 0, values <= histMin
// including zero and negatives) and an overflow bucket. The quantile error
// is bounded by the bucket growth factor (~10% relative) and further tightened
// by clamping estimates to the exactly tracked min/max.
const (
	histMin    = 1e-9
	histMax    = 1e12
	histGrowth = 1.1
)

var (
	histLogGrowth = math.Log(histGrowth)
	histNumBucket = 2 + int(math.Ceil(math.Log(histMax/histMin)/histLogGrowth))
)

// Histogram is a streaming histogram for non-negative observations
// (durations in seconds, byte sizes, losses). It records count, sum and
// exact min/max alongside exponential buckets for quantile estimation.
// All methods are safe for concurrent use.
type Histogram struct {
	mu      sync.Mutex
	buckets []int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]int64, histNumBucket), min: math.Inf(1), max: math.Inf(-1)}
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v float64) int {
	if v <= histMin || math.IsNaN(v) {
		return 0
	}
	idx := 1 + int(math.Log(v/histMin)/histLogGrowth)
	if idx >= histNumBucket {
		return histNumBucket - 1
	}
	return idx
}

// bucketLo returns the lower bound of bucket idx (0 for the underflow
// bucket).
func bucketLo(idx int) float64 {
	if idx <= 0 {
		return 0
	}
	return histMin * math.Pow(histGrowth, float64(idx-1))
}

// Observe records one value. A nil histogram (from a nil registry) is a
// no-op.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.buckets[bucketIndex(v)]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramStats is a histogram summary with streaming quantile estimates.
type HistogramStats struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// Stats summarises the histogram. Quantiles are interpolated within their
// bucket and clamped to the observed [min, max], so a constant stream
// reports the constant exactly.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return HistogramStats{}
	}
	return HistogramStats{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
		P50:   h.quantileLocked(0.50),
		P95:   h.quantileLocked(0.95),
		P99:   h.quantileLocked(0.99),
	}
}

// Quantile estimates the q-th quantile (q in [0,1]); 0 on a nil histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.quantileLocked(q)
}

func (h *Histogram) quantileLocked(q float64) float64 {
	rank := q * float64(h.count)
	if rank < 1 {
		rank = 1
	}
	var cum float64
	for i, n := range h.buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := bucketLo(i), bucketLo(i+1)
			frac := (rank - cum) / float64(n)
			est := lo + (hi-lo)*frac
			// Exact bounds beat bucket bounds at the tails.
			if est < h.min {
				est = h.min
			}
			if est > h.max {
				est = h.max
			}
			return est
		}
		cum = next
	}
	return h.max
}
