//silofuse:bitwise-ok diff-gate tests pin exact metric flattening and threshold arithmetic
package experiments

import (
	"strings"
	"testing"
)

func baseMetrics() map[string]float64 {
	return map[string]float64{
		"rows_per_sec/ae":            1000,
		"step_p95_sec/ae":            0.010,
		"allocs_per_step/ae":         4,
		"alloc_bytes_per_step/ae":    4096,
		"wire_bytes/latents":         100_000,
		"wire_enc_bytes/f32/latents": 50_000,
		"wire_err_max/f32/latents":   2e-7,
		"wire_err_max/f64/grad-up":   0,
		"loss/diffusion-train":       0.85,
		"phase_sec/diffusion-train":  2.0,
	}
}

// TestDiffMetricsClean checks that an identical pair of metric sets compares
// regression-free under the default thresholds.
func TestDiffMetricsClean(t *testing.T) {
	rep := DiffMetrics(baseMetrics(), baseMetrics(), DefaultDiffThresholds())
	if rep.Regressions != 0 {
		t.Fatalf("identical metrics produced %d regressions: %+v", rep.Regressions, rep.Entries)
	}
	if len(rep.Entries) != len(baseMetrics()) {
		t.Fatalf("entries = %d, want %d", len(rep.Entries), len(baseMetrics()))
	}
}

// TestDiffMetricsThroughputRegression checks the headline gate: an injected
// throughput collapse past the threshold is flagged, while a drop within the
// threshold is not.
func TestDiffMetricsThroughputRegression(t *testing.T) {
	th := DefaultDiffThresholds()

	cur := baseMetrics()
	cur["rows_per_sec/ae"] = 1000 * (1 - th.ThroughputDrop) * 0.9 // past the allowed drop
	rep := DiffMetrics(baseMetrics(), cur, th)
	if rep.Regressions != 1 {
		t.Fatalf("injected throughput drop: %d regressions, want 1: %+v", rep.Regressions, rep.Entries)
	}
	var flagged *DiffEntry
	for i := range rep.Entries {
		if rep.Entries[i].Regressed {
			flagged = &rep.Entries[i]
		}
	}
	if flagged == nil || flagged.Metric != "rows_per_sec/ae" {
		t.Fatalf("wrong metric flagged: %+v", flagged)
	}

	cur = baseMetrics()
	cur["rows_per_sec/ae"] = 1000 * (1 - th.ThroughputDrop) * 1.1 // within the allowed drop
	if rep := DiffMetrics(baseMetrics(), cur, th); rep.Regressions != 0 {
		t.Fatalf("tolerated drop flagged: %+v", rep.Entries)
	}

	// Throughput going up is never a regression.
	cur = baseMetrics()
	cur["rows_per_sec/ae"] = 5000
	if rep := DiffMetrics(baseMetrics(), cur, th); rep.Regressions != 0 {
		t.Fatalf("improvement flagged: %+v", rep.Entries)
	}
}

// TestDiffMetricsPerClassGates checks each remaining metric class's gate:
// alloc growth (absolute), wire/loss growth (fractional), step-tail growth,
// and phase time staying informational until a threshold is set.
func TestDiffMetricsPerClassGates(t *testing.T) {
	th := DefaultDiffThresholds()
	cases := []struct {
		metric string
		value  float64
		flag   bool
	}{
		{"allocs_per_step/ae", 4 + th.AllocGrowth + 1, true},
		{"allocs_per_step/ae", 4 + th.AllocGrowth, false},
		{"alloc_bytes_per_step/ae", 4096*(1+th.AllocBytesGrowth) + 100, true},
		{"wire_bytes/latents", 100_000*(1+th.WireGrowth) + 300, true},
		{"wire_bytes/latents", 100_000 * (1 + th.WireGrowth/2), false},
		{"wire_enc_bytes/f32/latents", 50_000*(1+th.WireGrowth) + 300, true},
		{"wire_enc_bytes/f32/latents", 50_000 * (1 + th.WireGrowth/2), false},
		{"wire_err_max/f32/latents", 2e-7 * (1 + th.WireErrGrowth) * 1.1, true},
		{"wire_err_max/f32/latents", 2e-7 * (1 + th.WireErrGrowth/2), false},
		// A lossless codec turning lossy is a regression even from a zero
		// baseline; float noise below the absolute floor is not.
		{"wire_err_max/f64/grad-up", 1e-6, true},
		{"wire_err_max/f64/grad-up", 1e-13, false},
		{"loss/diffusion-train", 0.85 * (1 + th.LossGrowth) * 1.05, true},
		{"loss/diffusion-train", 0.85, false},
		{"step_p95_sec/ae", 0.010 * (1 + th.ThroughputDrop) * 1.1, true},
		{"phase_sec/diffusion-train", 100, false}, // informational by default
	}
	for _, c := range cases {
		cur := baseMetrics()
		cur[c.metric] = c.value
		rep := DiffMetrics(baseMetrics(), cur, th)
		if got := rep.Regressions > 0; got != c.flag {
			t.Errorf("%s=%v: regressed=%v, want %v", c.metric, c.value, got, c.flag)
		}
	}

	// Negative losses (autoencoder NLL) measure growth against |base|:
	// bit-identical values must never flag, and real growth still does.
	negCases := []struct {
		base, cur float64
		flag      bool
	}{
		{-3.5, -3.5, false},
		{-3.5, -3.5 + 3.5*th.LossGrowth/2, false},
		{-3.5, -3.5 + 3.5*th.LossGrowth*1.1, true},
	}
	for _, c := range negCases {
		base, cur := baseMetrics(), baseMetrics()
		base["loss/ae-train"] = c.base
		cur["loss/ae-train"] = c.cur
		rep := DiffMetrics(base, cur, th)
		if got := rep.Regressions > 0; got != c.flag {
			t.Errorf("negative loss %v -> %v: regressed=%v, want %v", c.base, c.cur, got, c.flag)
		}
	}

	// The -bench-baseline policy zeroes the wall-clock and bit-deterministic
	// thresholds: timings become informational however far they move,
	// losses and wire bytes must be equal in either direction, and the
	// allocation and codec-error tolerances are the default ones.
	gate := BenchGateThresholds()
	gateCases := []struct {
		metric string
		value  float64
		flag   bool
	}{
		{"rows_per_sec/ae", 1, false},
		{"step_p95_sec/ae", 10, false},
		{"phase_sec/diffusion-train", 100, false},
		{"loss/diffusion-train", 0.85, false},
		{"loss/diffusion-train", 0.85 + 1e-12, true},
		{"loss/diffusion-train", 0.85 - 1e-12, true},
		{"wire_bytes/latents", 100_000, false},
		{"wire_bytes/latents", 100_001, true},
		{"wire_bytes/latents", 99_999, true},
		{"wire_enc_bytes/f32/latents", 50_001, true},
		{"allocs_per_step/ae", 4 + gate.AllocGrowth, false},
		{"allocs_per_step/ae", 4 + gate.AllocGrowth + 1, true},
		{"alloc_bytes_per_step/ae", 4096*(1+gate.AllocBytesGrowth) + 100, true},
		{"wire_err_max/f32/latents", 2e-7 * (1 + gate.WireErrGrowth) * 1.1, true},
	}
	for _, c := range gateCases {
		cur := baseMetrics()
		cur[c.metric] = c.value
		rep := DiffMetrics(baseMetrics(), cur, gate)
		if got := rep.Regressions > 0; got != c.flag {
			t.Errorf("bench gate %s=%v: regressed=%v, want %v", c.metric, c.value, got, c.flag)
		}
	}

	// Opting into the phase gate flags wall-time growth.
	th.PhaseGrowth = 0.5
	cur := baseMetrics()
	cur["phase_sec/diffusion-train"] = 4.0
	if rep := DiffMetrics(baseMetrics(), cur, th); rep.Regressions != 1 {
		t.Fatalf("phase gate with threshold set: %d regressions, want 1", rep.Regressions)
	}
}

// TestBenchMetricsWireFlattening checks that the snapshot's wire section
// flattens into the keys the diff gate compares.
func TestBenchMetricsWireFlattening(t *testing.T) {
	b := NewBenchSnapshot("fig10x", "fast")
	b.Wire = map[string]WireCodecStats{
		"f32/latents": {Messages: 3, RawBytes: 3000, Bytes: 1560, MaxErr: 2e-7, MeanErr: 4e-8},
	}
	m := BenchMetrics(b)
	if m["wire_enc_bytes/f32/latents"] != 1560 {
		t.Fatalf("wire_enc_bytes = %v", m["wire_enc_bytes/f32/latents"])
	}
	if m["wire_err_max/f32/latents"] != 2e-7 {
		t.Fatalf("wire_err_max = %v", m["wire_err_max/f32/latents"])
	}
}

// TestDiffMetricsNewAndMissing checks that metrics present on only one side
// are reported but never gate.
func TestDiffMetricsNewAndMissing(t *testing.T) {
	base := baseMetrics()
	cur := baseMetrics()
	delete(cur, "loss/diffusion-train")
	cur["rows_per_sec/gan"] = 123

	rep := DiffMetrics(base, cur, DefaultDiffThresholds())
	if rep.Regressions != 0 {
		t.Fatalf("new/missing metrics gated: %+v", rep.Entries)
	}
	notes := map[string]string{}
	for _, e := range rep.Entries {
		notes[e.Metric] = e.Note
	}
	if notes["loss/diffusion-train"] != "missing" || notes["rows_per_sec/gan"] != "new" {
		t.Fatalf("notes = %v", notes)
	}
}

// TestEventMetrics checks the event-stream flattening: last train loss wins,
// throughput averages, cumulative wire counters keep their max, phase
// durations and attr losses land under their keys.
func TestEventMetrics(t *testing.T) {
	events := []map[string]any{
		{"type": "run-start"},
		{"type": "train", "stage": "ae", "loss": 3.0, "rows_per_sec": 100.0},
		{"type": "train", "stage": "ae", "loss": 2.0, "rows_per_sec": 300.0},
		{"type": "phase", "name": "ae-train", "dur_sec": 1.5,
			"bus_bytes_by_kind": map[string]any{"latents": 500.0}},
		{"type": "phase", "name": "diffusion-train", "dur_sec": 2.5,
			"attrs":             map[string]any{"loss": 0.9},
			"bus_bytes_by_kind": map[string]any{"latents": 800.0}},
	}
	m := EventMetrics(events)
	if m["loss/ae"] != 2.0 {
		t.Errorf("loss/ae = %v, want the last value 2.0", m["loss/ae"])
	}
	if m["rows_per_sec/ae"] != 200.0 {
		t.Errorf("rows_per_sec/ae = %v, want the mean 200", m["rows_per_sec/ae"])
	}
	if m["phase_sec/diffusion-train"] != 2.5 || m["loss/diffusion-train"] != 0.9 {
		t.Errorf("phase metrics = %v", m)
	}
	if m["wire_bytes/latents"] != 800.0 {
		t.Errorf("wire_bytes/latents = %v, want the cumulative max 800", m["wire_bytes/latents"])
	}
}

// TestDiffReportWriteTable checks the rendered delta table: header, a
// REGRESSION row, and the summary footer.
func TestDiffReportWriteTable(t *testing.T) {
	cur := baseMetrics()
	cur["wire_bytes/latents"] = 500_000
	rep := DiffMetrics(baseMetrics(), cur, DefaultDiffThresholds())

	var b strings.Builder
	if err := rep.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"METRIC", "REGRESSION: wire bytes grew", "1 regression(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
