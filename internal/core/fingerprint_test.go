//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package core

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"silofuse/internal/datagen"
)

// TestFitFingerprintOracle pins a whole stacked fit and a draw from it to
// the FNV-1a hashes CHANGES.md records since PR 13: the hash of Save's
// stream (every weight) and the hash of the sampled table's cell bits, on
// the narrow schema and on the wide one, at the benchmark's shapes and
// seed 1. Kernel and layer rewrites (the AVX2 axpy, the gather/scatter
// autoencoder input layer, chunked Encode, the pooled Adam sweep) are held
// to "same bits" by this test; `make test-purego` repeats it on the Go
// kernels. A change that is meant to alter the arithmetic updates the
// hashes and says why.
func TestFitFingerprintOracle(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes were recorded on amd64; a compiler that fuses multiply-adds rounds differently")
	}
	if testing.Short() {
		t.Skip("two full-width fits")
	}
	cases := []struct {
		dataset                  string
		rows, diffIters          int
		sampleRows, steps        int
		wantWeights, wantSampled uint64
	}{
		{"adult", 4000, 22, 500, 25, 0xaf798c649637b2b2, 0xadfaef4b8c6463d3},
		{"churn", 2000, 2, 64, 5, 0xf4b9aab0660108ff, 0x72d9f39046383eb4},
	}
	for _, c := range cases {
		spec, err := datagen.ByName(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		o := DefaultOptions()
		o.Seed, o.Batch, o.AEIters, o.DiffIters, o.SynthSteps = 1, 256, 6, c.diffIters, c.steps
		m := NewSiloFuse(o)
		if err := m.Fit(spec.Generate(c.rows, 1)); err != nil {
			t.Fatal(err)
		}
		weights := fnv.New64a()
		if err := m.Save(weights); err != nil {
			t.Fatal(err)
		}
		if got := weights.Sum64(); got != c.wantWeights {
			t.Errorf("%s: weight hash %016x, oracle %016x", c.dataset, got, c.wantWeights)
		}
		drawn, err := m.Sample(c.sampleRows)
		if err != nil {
			t.Fatal(err)
		}
		sampled := fnv.New64a()
		var b [8]byte
		for _, v := range drawn.Data.Data {
			u := math.Float64bits(v)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			sampled.Write(b[:])
		}
		if got := sampled.Sum64(); got != c.wantSampled {
			t.Errorf("%s: sampled-table hash %016x, oracle %016x", c.dataset, got, c.wantSampled)
		}
	}
}
