package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"silofuse/internal/obs"
	"silofuse/internal/silo"
	"silofuse/internal/tensor"
)

// RuntimeInfo pins the toolchain and machine a run executed on, so manifests
// from different hosts are comparable.
type RuntimeInfo struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's P count at capture time — the number
	// that actually bounds kernel-pool parallelism, which can differ from
	// NumCPU under cgroup limits or an explicit GOMAXPROCS override.
	GOMAXPROCS int `json:"gomaxprocs"`
	// Kernel is the matmul inner loop a start-up CPU probe selected
	// (tensor.KernelTier): results do not depend on it, every timing does.
	// Absent from records written before the field existed.
	Kernel string `json:"kernel,omitempty"`
}

// CurrentRuntime captures this process's RuntimeInfo.
func CurrentRuntime() RuntimeInfo {
	return RuntimeInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     tensor.KernelTier(),
	}
}

// PhaseSummary is one top-level trace span flattened for the manifest.
type PhaseSummary struct {
	Name     string         `json:"name"`
	StartSec float64        `json:"start_sec"`
	DurSec   float64        `json:"dur_sec"`
	Attrs    map[string]any `json:"attrs,omitempty"`
}

// Manifest is the per-run record written to results/<run>/manifest.json: the
// configuration that produced the run, per-phase wall-clock durations, final
// quality metrics, wire traffic broken down by message kind, and the full
// metrics snapshot. It is the machine-readable companion of a training or
// benchmark run — enough to reconstruct Figure 10-style communication
// numbers without re-running.
type Manifest struct {
	Run             string             `json:"run"`
	CreatedAt       time.Time          `json:"created_at"`
	Seed            int64              `json:"seed"`
	Runtime         RuntimeInfo        `json:"runtime"`
	Config          map[string]any     `json:"config,omitempty"`
	Phases          []PhaseSummary     `json:"phases"`
	FinalMetrics    map[string]float64 `json:"final_metrics,omitempty"`
	WireMessages    int64              `json:"wire_messages"`
	WireBytes       int64              `json:"wire_bytes"`
	WireBytesByKind map[string]int64   `json:"wire_bytes_by_kind"`
	WireBytesByDir  map[string]int64   `json:"wire_bytes_by_dir,omitempty"`
	// Wire is the codec-level bytes-vs-error section, keyed "<codec>/<kind>":
	// for each compressed message kind, the bytes actually framed, the f64
	// baseline they replace, and the max/mean reconstruction error the
	// precision tier introduced (zero for lossless codecs).
	Wire    map[string]WireCodecStats `json:"wire,omitempty"`
	Metrics obs.Snapshot              `json:"metrics"`
}

// NewManifest starts a manifest for the named run.
func NewManifest(run string, seed int64) *Manifest {
	return &Manifest{
		Run:             run,
		CreatedAt:       time.Now().UTC(),
		Seed:            seed,
		Runtime:         CurrentRuntime(),
		Config:          make(map[string]any),
		FinalMetrics:    make(map[string]float64),
		WireBytesByKind: make(map[string]int64),
	}
}

// FromRecorder fills the manifest from rec: phases from the tracer's
// top-level spans, wire traffic from the bus_* counters, the codec-level
// bytes-vs-error accounting from the wire_* metric families, and the full
// metrics snapshot. A nil or disabled recorder leaves the manifest
// unchanged. A run whose fits trace on several recorders over rec's registry
// (silofuse-bench's cells) passes them as lanes: their top-level spans join
// the phases, each timed from its own tracer's start.
func (m *Manifest) FromRecorder(rec *obs.Recorder, lanes ...*obs.Recorder) {
	if rec == nil {
		return
	}
	for _, r := range append([]*obs.Recorder{rec}, lanes...) {
		for _, sp := range r.Trace.Spans() {
			if sp.Parent == "" {
				m.Phases = append(m.Phases, PhaseSummary{
					Name: sp.Name, StartSec: sp.StartSec, DurSec: sp.DurSec, Attrs: sp.Attrs,
				})
			}
		}
	}
	m.Metrics = rec.Snapshot()
	m.Wire = mergeWire(m.Wire, parseWireMetrics(m.Metrics))
	for name, v := range m.Metrics.Counters {
		if kind, ok := strings.CutPrefix(name, "bus_bytes_total_"); ok {
			m.WireBytesByKind[kind] += v
			m.WireBytes += v
		}
		if strings.HasPrefix(name, "bus_messages_total_") {
			m.WireMessages += v
		}
	}
}

// FromStats merges transport statistics from a Bus snapshot: the per-link
// byte breakdown, plus totals when the recorder did not already supply them.
func (m *Manifest) FromStats(st silo.Stats) {
	if len(st.BytesByDir) > 0 {
		if m.WireBytesByDir == nil {
			m.WireBytesByDir = make(map[string]int64, len(st.BytesByDir))
		}
		for k, v := range st.BytesByDir {
			m.WireBytesByDir[k] += v
		}
	}
	if m.WireMessages == 0 {
		m.WireMessages = st.Messages
	}
	if m.WireBytes == 0 {
		m.WireBytes = st.Bytes
		for k, v := range st.ByKind {
			m.WireBytesByKind[string(k)] += v
		}
	}
}

// Write creates dir if needed and writes the manifest as indented JSON to
// dir/manifest.json.
func (m *Manifest) Write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: manifest dir: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("experiments: manifest encode: %w", err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiments: manifest write: %w", err)
	}
	return nil
}

// WireCodecStats is one codec/kind row of the wire compression accounting.
type WireCodecStats struct {
	Messages int64   `json:"messages"`
	RawBytes int64   `json:"raw_bytes"` // the same frames with f64 bodies (header + 8·values)
	Bytes    int64   `json:"bytes"`     // bytes actually framed under the codec
	MaxErr   float64 `json:"max_err"`
	MeanErr  float64 `json:"mean_err"`
}

// mergeWire folds src into dst (allocating dst if nil): counts accumulate,
// errors keep the worst observed value, so merging several parties'
// recorders yields fleet-wide totals with the fleet-worst error.
func mergeWire(dst, src map[string]WireCodecStats) map[string]WireCodecStats {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]WireCodecStats, len(src))
	}
	for k, st := range src {
		prev := dst[k]
		prev.Messages += st.Messages
		prev.RawBytes += st.RawBytes
		prev.Bytes += st.Bytes
		if st.MaxErr > prev.MaxErr {
			prev.MaxErr = st.MaxErr
		}
		if st.MeanErr > prev.MeanErr {
			prev.MeanErr = st.MeanErr
		}
		dst[k] = prev
	}
	return dst
}

// parseWireMetrics reassembles the per-codec wire accounting from the
// wire_* metric families (see obs.Recorder.WireCodec). Codec names carry no
// underscore, so the "<codec>_<kind>" suffix splits at the first one.
func parseWireMetrics(snap obs.Snapshot) map[string]WireCodecStats {
	out := make(map[string]WireCodecStats)
	key := func(suffix string) (string, bool) {
		codec, kind, ok := strings.Cut(suffix, "_")
		return codec + "/" + kind, ok
	}
	update := func(suffix string, f func(*WireCodecStats)) {
		k, ok := key(suffix)
		if !ok {
			return
		}
		st := out[k]
		f(&st)
		out[k] = st
	}
	for name, v := range snap.Counters {
		if suffix, ok := strings.CutPrefix(name, "wire_messages_total_"); ok {
			update(suffix, func(st *WireCodecStats) { st.Messages += v })
		}
		if suffix, ok := strings.CutPrefix(name, "wire_raw_bytes_total_"); ok {
			update(suffix, func(st *WireCodecStats) { st.RawBytes += v })
		}
		if suffix, ok := strings.CutPrefix(name, "wire_bytes_total_"); ok {
			update(suffix, func(st *WireCodecStats) { st.Bytes += v })
		}
	}
	for name, v := range snap.Gauges {
		if suffix, ok := strings.CutPrefix(name, "wire_err_max_"); ok {
			update(suffix, func(st *WireCodecStats) {
				if v > st.MaxErr {
					st.MaxErr = v
				}
			})
		}
		if suffix, ok := strings.CutPrefix(name, "wire_err_mean_"); ok {
			update(suffix, func(st *WireCodecStats) {
				if v > st.MeanErr {
					st.MeanErr = v
				}
			})
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// replayWireMetrics re-emits an aggregated wire accounting into rec's
// wire_* metric families: counters accumulate, error gauges keep the worst
// value already recorded. Sweeps that measure isolated runs on private
// recorders (Figure10X) use it to surface their per-codec accounting in the
// run's main recorder, and hence in the run manifest.
func replayWireMetrics(rec *obs.Recorder, wire map[string]WireCodecStats) {
	if rec == nil {
		return
	}
	for key, st := range wire {
		codecName, kind, ok := strings.Cut(key, "/")
		if !ok {
			continue
		}
		suffix := codecName + "_" + kind
		rec.Reg.Counter("wire_messages_total_" + suffix).Add(st.Messages)
		rec.Reg.Counter("wire_raw_bytes_total_" + suffix).Add(st.RawBytes)
		rec.Reg.Counter("wire_bytes_total_" + suffix).Add(st.Bytes)
		if g := rec.Reg.Gauge("wire_err_max_" + suffix); st.MaxErr > g.Value() {
			g.Set(st.MaxErr)
		}
		if g := rec.Reg.Gauge("wire_err_mean_" + suffix); st.MeanErr > g.Value() {
			g.Set(st.MeanErr)
		}
	}
}
