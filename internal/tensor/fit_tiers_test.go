package tensor_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"silofuse/internal/core"
	"silofuse/internal/datagen"
	"silofuse/internal/tensor"
)

// TestFitSameOnEveryTier fits one small stacked model and draws from it on
// every kernel tier this process has, and requires the same weights (the
// hash of Save's stream) and the same sampled table (the hash of its cells'
// bits) from each: the tile, the AVX2 axpy and the Go loops, with the lane
// kernels or without them, train and sample one model. core's
// TestFitFingerprintOracle pins the bits themselves; this test says they do
// not depend on the tier that computed them.
func TestFitSameOnEveryTier(t *testing.T) {
	if testing.Short() {
		t.Skip("three fits")
	}
	spec, err := datagen.ByName("adult")
	if err != nil {
		t.Fatal(err)
	}
	table := spec.Generate(600, 1)
	type result struct {
		tier             string
		weights, sampled uint64
	}
	var got []result
	for _, tr := range tensor.AllTiers {
		t.Run(tr.String(), func(t *testing.T) {
			tensor.ForceTier(t, tr)
			o := core.FastOptions()
			o.AEIters, o.DiffIters, o.SynthSteps = 30, 30, 5
			m := core.NewSiloFuse(o)
			if err := m.Fit(table); err != nil {
				t.Fatal(err)
			}
			weights := fnv.New64a()
			if err := m.Save(weights); err != nil {
				t.Fatal(err)
			}
			drawn, err := m.Sample(200)
			if err != nil {
				t.Fatal(err)
			}
			sampled := fnv.New64a()
			var b [8]byte
			for _, v := range drawn.Data.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				sampled.Write(b[:])
			}
			got = append(got, result{tensor.KernelTier(), weights.Sum64(), sampled.Sum64()})
		})
	}
	for _, r := range got[1:] {
		if r.weights != got[0].weights || r.sampled != got[0].sampled {
			t.Errorf("%s: weights %016x, sampled table %016x; %s: %016x, %016x",
				r.tier, r.weights, r.sampled, got[0].tier, got[0].weights, got[0].sampled)
		}
	}
	t.Logf("%d tiers: weights %016x, sampled table %016x", len(got), got[0].weights, got[0].sampled)
}
