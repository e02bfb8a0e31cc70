package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Bench/run diffing: the regression engine behind `silofuse-obs diff` and
// silofuse-bench's -bench-baseline gate. Two snapshots (or two run
// directories) are flattened into namespaced metric keys —
//
//	rows_per_sec/<stage>          training throughput (machine-variant)
//	step_p95_sec/<stage>          step-latency tail (machine-variant)
//	allocs_per_step/<stage>       steady-state heap allocations (deterministic)
//	alloc_bytes_per_step/<stage>  steady-state heap bytes (deterministic)
//	wire_bytes/<kind>             modeled wire bytes (bit-deterministic)
//	wire_enc_bytes/<codec>/<kind> codec-framed wire bytes (bit-deterministic)
//	wire_err_max/<codec>/<kind>   codec max reconstruction error (deterministic)
//	loss/<stage>                  final training loss (bit-deterministic)
//	phase_sec/<phase>             phase wall time (informational by default)
//
// — and compared under per-class thresholds: loose for machine-variant
// metrics, tight for deterministic ones. A zero threshold tolerates nothing,
// which means two things by class: a wall-clock metric (rows_per_sec,
// step_p95_sec, phase_sec) never repeats, so zero makes it informational —
// printed, never gated; a bit-deterministic one (loss, wire_bytes,
// wire_enc_bytes) does repeat, so zero compares it for equality.

// DiffThresholds sets the allowed regression per metric class. Fractions
// are relative ("0.1" = 10% growth); AllocGrowth is absolute (allocations
// per step are small integers in steady state, so +2 means "two new
// allocations per step").
type DiffThresholds struct {
	// ThroughputDrop is the allowed fractional drop in rows_per_sec and rise
	// in step_p95_sec (machine-variant: CI boxes differ widely); zero leaves
	// both informational.
	ThroughputDrop float64
	// AllocGrowth is the allowed absolute growth in allocs_per_step.
	AllocGrowth float64
	// AllocBytesGrowth is the allowed fractional growth in
	// alloc_bytes_per_step.
	AllocBytesGrowth float64
	// WireGrowth is the allowed fractional growth in wire_bytes and
	// wire_enc_bytes (the byte model is deterministic, so growth means the
	// protocol or codec framing itself changed); zero requires equality.
	WireGrowth float64
	// WireErrGrowth is the allowed fractional growth in wire_err_max: the
	// reconstruction error a lossy codec introduces is deterministic for a
	// fixed configuration and seed, so meaningful growth means the codec's
	// accuracy degraded.
	WireErrGrowth float64
	// LossGrowth is the allowed fractional growth in loss (bit-identical
	// across runs of the same configuration and seed); zero requires
	// equality.
	LossGrowth float64
	// PhaseGrowth, when > 0, also gates phase_sec wall times; zero leaves
	// them informational.
	PhaseGrowth float64
}

// DefaultDiffThresholds returns the CI gate policy: generous on wall-clock
// metrics, tight on deterministic ones.
func DefaultDiffThresholds() DiffThresholds {
	return DiffThresholds{
		ThroughputDrop:   0.60,
		AllocGrowth:      2,
		AllocBytesGrowth: 0.25,
		WireGrowth:       0.10,
		WireErrGrowth:    0.10,
		LossGrowth:       0.25,
	}
}

// BenchGateThresholds returns the -bench-baseline policy, for two snapshots
// of one configuration and seed: losses and wire bytes must be equal,
// allocations and codec error keep the default tolerances, and every
// wall-clock metric is informational — a neighbour on a shared box moves a
// step tail further than any threshold worth having, so speed is judged by
// `go run ./benchmark -compare` alone.
func BenchGateThresholds() DiffThresholds {
	th := DefaultDiffThresholds()
	th.ThroughputDrop, th.WireGrowth, th.LossGrowth = 0, 0, 0
	return th
}

// DiffEntry is one compared metric.
type DiffEntry struct {
	Metric    string  `json:"metric"`
	Base      float64 `json:"base"`
	Cur       float64 `json:"cur"`
	Delta     float64 `json:"delta"`
	Pct       float64 `json:"pct"` // fractional change vs base (0 when base is 0)
	Regressed bool    `json:"regressed,omitempty"`
	Note      string  `json:"note,omitempty"`
}

// DiffReport is the result of comparing two metric sets.
type DiffReport struct {
	Entries     []DiffEntry `json:"entries"`
	Regressions int         `json:"regressions"`
}

// BenchMetrics flattens a snapshot into the namespaced metric keys the diff
// engine compares.
func BenchMetrics(b *BenchSnapshot) map[string]float64 {
	if b == nil {
		return nil
	}
	out := make(map[string]float64)
	for stage, v := range b.RowsPerSec {
		out["rows_per_sec/"+stage] = v
	}
	for stage, h := range b.StepSeconds {
		out["step_p95_sec/"+stage] = h.P95
	}
	for stage, v := range b.AllocsPerStep {
		out["allocs_per_step/"+stage] = v
	}
	for stage, v := range b.AllocBytesPerStep {
		out["alloc_bytes_per_step/"+stage] = v
	}
	for kind, v := range b.WireBytesByKind {
		out["wire_bytes/"+kind] = float64(v)
	}
	for key, st := range b.Wire {
		out["wire_enc_bytes/"+key] = float64(st.Bytes)
		out["wire_err_max/"+key] = st.MaxErr
	}
	for _, ph := range b.Phases {
		out["phase_sec/"+ph.Name] = ph.DurSec
		if loss, ok := ph.Attrs["loss"].(float64); ok {
			out["loss/"+ph.Name] = loss
		}
	}
	return out
}

// EventMetrics derives the comparable metric set from a run's event stream
// (obs.ReadEventsFile output): the final loss and mean throughput per
// training stage, each phase's duration, and the final cumulative wire
// bytes by kind.
func EventMetrics(events []map[string]any) map[string]float64 {
	out := make(map[string]float64)
	rpsSum := make(map[string]float64)
	rpsN := make(map[string]int)
	for _, ev := range events {
		typ, _ := ev["type"].(string)
		switch typ {
		case "train":
			stage, _ := ev["stage"].(string)
			if stage == "" {
				continue
			}
			if loss, ok := ev["loss"].(float64); ok {
				out["loss/"+stage] = loss // last one wins: final loss
			}
			if rps, ok := ev["rows_per_sec"].(float64); ok && rps > 0 {
				rpsSum[stage] += rps
				rpsN[stage]++
			}
		case "phase":
			name, _ := ev["name"].(string)
			if name == "" {
				continue
			}
			if dur, ok := ev["dur_sec"].(float64); ok {
				out["phase_sec/"+name] = dur
			}
			if attrs, ok := ev["attrs"].(map[string]any); ok {
				if loss, ok := attrs["loss"].(float64); ok {
					out["loss/"+name] = loss
				}
			}
			if byKind, ok := ev["bus_bytes_by_kind"].(map[string]any); ok {
				for kind, v := range byKind {
					if bytes, ok := v.(float64); ok && bytes > out["wire_bytes/"+kind] {
						out["wire_bytes/"+kind] = bytes // cumulative counter: keep the max
					}
				}
			}
		}
	}
	for stage, sum := range rpsSum {
		out["rows_per_sec/"+stage] = sum / float64(rpsN[stage])
	}
	return out
}

// DiffMetrics compares cur against base under th. Metrics present on only
// one side are reported as informational entries, never regressions.
func DiffMetrics(base, cur map[string]float64, th DiffThresholds) *DiffReport {
	keys := make([]string, 0, len(base)+len(cur))
	seen := make(map[string]bool, len(base)+len(cur))
	for k := range base {
		keys = append(keys, k)
		seen[k] = true
	}
	for k := range cur {
		if !seen[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	rep := &DiffReport{}
	for _, k := range keys {
		b, inBase := base[k]
		c, inCur := cur[k]
		e := DiffEntry{Metric: k, Base: b, Cur: c, Delta: c - b}
		switch {
		case !inBase:
			e.Note = "new"
		case !inCur:
			e.Note = "missing"
		default:
			if b != 0 { //silofuse:bitwise-ok zero-baseline guard before division
				e.Pct = (c - b) / b
			}
			e.Regressed, e.Note = regressed(k, b, c, th)
		}
		if e.Regressed {
			rep.Regressions++
		}
		rep.Entries = append(rep.Entries, e)
	}
	return rep
}

// regressed applies the metric class's threshold.
func regressed(key string, base, cur float64, th DiffThresholds) (bool, string) {
	class, _, _ := strings.Cut(key, "/")
	switch class {
	case "rows_per_sec":
		if th.ThroughputDrop > 0 && base > 0 && cur < base*(1-th.ThroughputDrop) {
			return true, fmt.Sprintf("throughput dropped > %.0f%%", th.ThroughputDrop*100)
		}
	case "step_p95_sec":
		if th.ThroughputDrop > 0 && base > 0 && cur > base*(1+th.ThroughputDrop) {
			return true, fmt.Sprintf("step tail grew > %.0f%%", th.ThroughputDrop*100)
		}
	case "allocs_per_step":
		if cur > base+th.AllocGrowth {
			return true, fmt.Sprintf("allocs/step grew > +%.0f", th.AllocGrowth)
		}
	case "alloc_bytes_per_step":
		if base >= 0 && cur > base*(1+th.AllocBytesGrowth)+64 {
			return true, fmt.Sprintf("alloc bytes/step grew > %.0f%%", th.AllocBytesGrowth*100)
		}
	case "wire_bytes", "wire_enc_bytes":
		if th.WireGrowth == 0 { //silofuse:bitwise-ok a zero threshold is the caller's request for an exact compare
			return differs(base, cur, "wire bytes differ (exact compare)")
		}
		if cur > base*(1+th.WireGrowth)+256 {
			return true, fmt.Sprintf("wire bytes grew > %.0f%%", th.WireGrowth*100)
		}
	case "wire_err_max":
		// The +1e-12 floor keeps lossless codecs (base and cur both ~0)
		// from tripping on float noise while still catching a codec that
		// silently turned lossy.
		if cur > base*(1+th.WireErrGrowth)+1e-12 {
			return true, fmt.Sprintf("codec reconstruction error grew > %.0f%%", th.WireErrGrowth*100)
		}
	case "loss":
		if th.LossGrowth == 0 { //silofuse:bitwise-ok a zero threshold is the caller's request for an exact compare
			return differs(base, cur, "loss differs (exact compare)")
		}
		// Growth is measured against |base|: autoencoder NLL goes negative,
		// where base*(1+g) would shrink the allowance below the baseline
		// itself and flag even bit-identical losses.
		if cur > base+math.Abs(base)*th.LossGrowth+1e-9 {
			return true, fmt.Sprintf("loss grew > %.0f%%", th.LossGrowth*100)
		}
	case "phase_sec":
		if th.PhaseGrowth > 0 && base > 0 && cur > base*(1+th.PhaseGrowth) {
			return true, fmt.Sprintf("phase time grew > %.0f%%", th.PhaseGrowth*100)
		}
	}
	return false, ""
}

// differs is the exact compare of a bit-deterministic metric.
func differs(base, cur float64, note string) (bool, string) {
	if cur != base { //silofuse:bitwise-ok exact compare of values that repeat bit for bit
		return true, note
	}
	return false, ""
}

// WriteTable renders the report as an aligned delta table, regressions
// flagged in the status column.
func (d *DiffReport) WriteTable(w io.Writer) error {
	if d == nil {
		return nil
	}
	width := len("METRIC")
	for _, e := range d.Entries {
		if len(e.Metric) > width {
			width = len(e.Metric)
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %14s  %14s  %8s  %s\n", width, "METRIC", "BASE", "CURRENT", "DELTA", "STATUS"); err != nil {
		return err
	}
	for _, e := range d.Entries {
		status := "ok"
		switch {
		case e.Regressed:
			status = "REGRESSION: " + e.Note
		case e.Note != "":
			status = e.Note
		}
		pct := "      --"
		if e.Base != 0 && e.Note != "new" && e.Note != "missing" { //silofuse:bitwise-ok zero-baseline guard before percentage formatting
			pct = fmt.Sprintf("%+7.1f%%", e.Pct*100)
		}
		if _, err := fmt.Fprintf(w, "%-*s  %14.6g  %14.6g  %8s  %s\n", width, e.Metric, e.Base, e.Cur, pct, status); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%d metrics compared, %d regression(s)\n", len(d.Entries), d.Regressions)
	return err
}
