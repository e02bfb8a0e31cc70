//silofuse:bitwise-ok batched-sampling tests pin bit-reproducible outputs with exact comparisons
package core

import (
	"testing"

	"silofuse/internal/tabular"
)

func fitSiloFuse(t *testing.T, opts Options) *SiloFuse {
	t.Helper()
	s := NewSiloFuse(opts)
	if err := s.Fit(loanTable(t, 150)); err != nil {
		t.Fatal(err)
	}
	return s
}

func sameCoreTable(t *testing.T, label string, a, b *tabular.Table) {
	t.Helper()
	if a.Data.Rows != b.Data.Rows || a.Data.Cols != b.Data.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, b.Data.Rows, b.Data.Cols, a.Data.Rows, a.Data.Cols)
	}
	for i, v := range a.Data.Data {
		if b.Data.Data[i] != v {
			t.Fatalf("%s: element %d diverges: %v vs %v", label, i, b.Data.Data[i], v)
		}
	}
}

// TestSampleBatchAPI pins the batched-sampling surface: with BatchSampling
// on, Sample(n) runs as a one-lane batch and matches SampleBatch([n])[0]
// from an identically fitted model, requests keep their row counts and
// schema, and the per-call lane-seed counter advances so consecutive
// batches draw fresh rows.
func TestSampleBatchAPI(t *testing.T) {
	opts := FastOptions() // scaled down to a quick fit
	opts.AEIters, opts.DiffIters, opts.Batch = 40, 60, 64
	opts.BatchSampling = true

	s := fitSiloFuse(t, opts)
	tables, err := s.SampleBatch([]int{4, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	for k, n := range []int{4, 7, 3} {
		if tables[k].Data.Rows != n {
			t.Fatalf("request %d got %d rows, want %d", k, tables[k].Data.Rows, n)
		}
	}
	again, err := s.SampleBatch([]int{4, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	identical := true
	for i, v := range tables[0].Data.Data {
		if again[0].Data.Data[i] != v {
			identical = false
			break
		}
	}
	if identical {
		t.Fatal("consecutive SampleBatch calls returned identical rows; lane-seed counter did not advance")
	}

	s2 := fitSiloFuse(t, opts)
	one, err := s2.Sample(6)
	if err != nil {
		t.Fatal(err)
	}
	s3 := fitSiloFuse(t, opts)
	batch, err := s3.SampleBatch([]int{6})
	if err != nil {
		t.Fatal(err)
	}
	sameCoreTable(t, "sample-vs-batch", batch[0], one)
}
