package core

import (
	"bytes"
	"math"
	"testing"
)

// TestComputePrecisionF32EndToEnd trains SiloFuse under the reduced-
// precision compute tier and checks the full pipeline — stacked training
// (always float64), f32 sampling and f32 decode — produces a valid table
// that tracks the f64 run closely.
func TestComputePrecisionF32EndToEnd(t *testing.T) {
	tb := loanTable(t, 300)
	run := func(precision string) [][]float64 {
		opts := tinyOptions()
		opts.AEIters = 60
		opts.DiffIters = 80
		opts.ComputePrecision = precision
		m := NewSiloFuse(opts)
		if err := m.Fit(tb); err != nil {
			t.Fatal(err)
		}
		out, err := m.Sample(50)
		if err != nil {
			t.Fatal(err)
		}
		if out.Rows() != 50 || out.Schema.NumColumns() != tb.Schema.NumColumns() {
			t.Fatalf("bad output shape %dx%d", out.Rows(), out.Schema.NumColumns())
		}
		rows := make([][]float64, out.Rows())
		for i := range rows {
			rows[i] = append([]float64(nil), out.Data.Row(i)...)
		}
		return rows
	}
	f64Rows := run("")
	f32Rows := run("f32")
	var maxDiff, scale float64
	for i := range f64Rows {
		for j := range f64Rows[i] {
			if d := math.Abs(f32Rows[i][j] - f64Rows[i][j]); d > maxDiff {
				maxDiff = d
			}
			if a := math.Abs(f64Rows[i][j]); a > scale {
				scale = a
			}
		}
	}
	// Training is bit-identical across tiers, so the only divergence is
	// f32 sampling + decode rounding. Categorical argmax flips on near-tie
	// logits can move a code by an integer, so bound the numeric drift by
	// the data scale rather than rounding scale.
	if maxDiff > 0.05*(1+scale) {
		t.Fatalf("f32 synthesis diverged from f64: max diff %g at scale %g", maxDiff, scale)
	}
}

func TestComputePrecisionRejectsUnknown(t *testing.T) {
	tb := loanTable(t, 80)
	opts := tinyOptions()
	opts.ComputePrecision = "bf16"
	if err := NewSiloFuse(opts).Fit(tb); err == nil {
		t.Fatal("expected error for unknown compute precision")
	}
	// Load builds its bus through the same function as Fit, so a model saved
	// at a valid precision is refused under an unknown one instead of
	// sampling in f64.
	fitted := NewSiloFuse(tinyOptions())
	if err := fitted.Fit(tb); err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := fitted.Save(&saved); err != nil {
		t.Fatal(err)
	}
	if err := NewSiloFuse(opts).Load(tb, &saved); err == nil {
		t.Fatal("Load accepted an unknown compute precision")
	}
}
