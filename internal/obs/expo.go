package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"silofuse/internal/obs/profile"
)

// promName sanitises a registry metric name into the Prometheus exposition
// charset [a-zA-Z0-9_:] (message-kind suffixes like "synth-req" carry '-').
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// helpHints maps metric-name prefixes to exposition help text. Registry
// metrics are created ad hoc by name, so help is keyed on the naming
// conventions the recorder uses rather than a central declaration table.
var helpHints = []struct{ prefix, help string }{
	{"bus_bytes", "modeled wire bytes through the silo bus"},
	{"bus_messages", "messages through the silo bus"},
	{"bus_retries", "resilient-bus retransmissions"},
	{"bus_redeliveries", "duplicate deliveries suppressed by the resilient bus"},
	{"bus_corrupt", "payload checksum failures detected on receive"},
	{"bus_reconnects", "transport reconnect attempts"},
	{"peer_down", "peer-down transitions observed"},
	{"train_step", "training step latency in seconds"},
	{"train_loss", "training loss by phase"},
	{"rows_synth", "synthetic rows produced"},
	{"alloc_", "allocation telemetry from the benchmark harness"},
	{"telemetry_", "telemetry federation bookkeeping"},
}

// helpFor returns the # HELP text for a (sanitised) metric family name.
func helpFor(name string) string {
	for _, h := range helpHints {
		if strings.HasPrefix(name, h.prefix) {
			return h.help
		}
	}
	return "silofuse metric " + name
}

// WritePrometheus writes the snapshot in Prometheus text exposition format
// (version 0.0.4): counters and gauges as single samples with # HELP and
// # TYPE headers, histograms as summaries with p50/p95/p99 quantile samples
// plus the conventional _sum and _count series. Families are sorted by name,
// so the output is deterministic for a given snapshot.
func WritePrometheus(w io.Writer, s Snapshot) error {
	type family struct{ name, text string }
	fams := make([]family, 0, len(s.Counters)+len(s.Gauges)+len(s.Histograms))
	for name, v := range s.Counters {
		n := promName(name)
		fams = append(fams, family{n, fmt.Sprintf("# HELP %s %s\n# TYPE %s counter\n%s %d\n", n, helpFor(n), n, n, v)})
	}
	for name, v := range s.Gauges {
		n := promName(name)
		fams = append(fams, family{n, fmt.Sprintf("# HELP %s %s\n# TYPE %s gauge\n%s %s\n", n, helpFor(n), n, n, promFloat(v))})
	}
	for name, h := range s.Histograms {
		n := promName(name)
		var b strings.Builder
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s summary\n", n, helpFor(n), n)
		fmt.Fprintf(&b, "%s{quantile=\"0.5\"} %s\n", n, promFloat(h.P50))
		fmt.Fprintf(&b, "%s{quantile=\"0.95\"} %s\n", n, promFloat(h.P95))
		fmt.Fprintf(&b, "%s{quantile=\"0.99\"} %s\n", n, promFloat(h.P99))
		fmt.Fprintf(&b, "%s_sum %s\n", n, promFloat(h.Sum))
		fmt.Fprintf(&b, "%s_count %d\n", n, h.Count)
		fams = append(fams, family{n, b.String()})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := io.WriteString(w, f.text); err != nil {
			return err
		}
	}
	return nil
}

// TelemetryConfig wires a live telemetry endpoint to a run's state.
type TelemetryConfig struct {
	// Rec supplies /metrics; nil serves an empty exposition.
	Rec *Recorder
	// Health, when non-nil, contributes fields to /healthz (e.g. per-peer
	// liveness derived from transport stats). Called per request.
	Health func() map[string]any
	// RunsDir is the directory holding per-run subdirectories
	// (results/<run>/manifest.json); empty disables /runs.
	RunsDir string
	// Party names this process in /debug/flightrecorder dumps; empty means
	// "local".
	Party string
	// Flight, when non-nil, enables /debug/flightrecorder: an on-demand dump
	// of the recent-operations ring.
	Flight *FlightRecorder
	// PhaseProfiles, when non-nil, enables /debug/phaseprofiles: the live
	// index of phase-scoped profiles and the captured .pb.gz files.
	PhaseProfiles *profile.PhaseProfiler
}

// NewTelemetryMux builds the live telemetry handler set:
//
//	/metrics            Prometheus text exposition of the recorder's registry
//	/healthz            JSON liveness (uptime, runtime, caller health fields)
//	/runs               JSON list of runs under RunsDir
//	/runs/<name>        the run's manifest.json
//	/runs/<name>/events the run's events.jsonl stream
//	/debug/phaseprofiles  live index + files of phase-scoped profiles
//	/debug/pprof/...    net/http/pprof profiles
func NewTelemetryMux(cfg TelemetryConfig) *http.ServeMux {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var snap Snapshot
		if cfg.Rec != nil {
			snap = cfg.Rec.Snapshot()
		}
		_ = WritePrometheus(w, snap)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var tr *Tracer
		if cfg.Rec != nil {
			tr = cfg.Rec.Trace
		}
		_ = tr.WriteChromeTraceLive(w)
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Flight == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		party := cfg.Party
		if party == "" {
			party = "local"
		}
		_ = cfg.Flight.WriteDump(w, party, "")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(start).Seconds(),
			"go_version":     runtime.Version(),
			"num_goroutine":  runtime.NumGoroutine(),
		}
		if cfg.Health != nil {
			for k, v := range cfg.Health() {
				h[k] = v
			}
		}
		writeJSON(w, h)
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		if cfg.RunsDir == "" {
			http.NotFound(w, r)
			return
		}
		entries, err := os.ReadDir(cfg.RunsDir)
		if err != nil && !os.IsNotExist(err) {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		runs := []string{}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if _, err := os.Stat(filepath.Join(cfg.RunsDir, e.Name(), "manifest.json")); err == nil {
				runs = append(runs, e.Name())
			}
		}
		writeJSON(w, map[string]any{"runs": runs})
	})
	mux.HandleFunc("/runs/", func(w http.ResponseWriter, r *http.Request) {
		if cfg.RunsDir == "" {
			http.NotFound(w, r)
			return
		}
		rest := strings.TrimPrefix(r.URL.Path, "/runs/")
		name, sub, _ := strings.Cut(rest, "/")
		// The run name must be a single clean path element.
		if name == "" || name != filepath.Base(filepath.Clean(name)) || name == ".." || name == "." {
			http.NotFound(w, r)
			return
		}
		switch sub {
		case "", "manifest", "manifest.json":
			w.Header().Set("Content-Type", "application/json")
			http.ServeFile(w, r, filepath.Join(cfg.RunsDir, name, "manifest.json"))
		case "events", "events.jsonl":
			w.Header().Set("Content-Type", "application/x-ndjson")
			http.ServeFile(w, r, filepath.Join(cfg.RunsDir, name, "events.jsonl"))
		default:
			http.NotFound(w, r)
		}
	})
	if cfg.PhaseProfiles != nil {
		mux.Handle("/debug/phaseprofiles", http.StripPrefix("/debug/phaseprofiles", cfg.PhaseProfiles.Handler()))
		mux.Handle("/debug/phaseprofiles/", http.StripPrefix("/debug/phaseprofiles", cfg.PhaseProfiles.Handler()))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// TelemetryServer is a running live telemetry endpoint.
type TelemetryServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartTelemetry binds addr (e.g. "127.0.0.1:8080", or ":0" for an ephemeral
// port) and serves the telemetry mux until Close.
func StartTelemetry(addr string, cfg TelemetryConfig) (*TelemetryServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: telemetry listen: %w", err)
	}
	srv := &http.Server{Handler: NewTelemetryMux(cfg)}
	//silofuse:fire-and-forget Serve returns as soon as Close closes the listener
	go func() { _ = srv.Serve(ln) }()
	return &TelemetryServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound listen address ("" on a nil server).
func (s *TelemetryServer) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server. Closing a nil server is a no-op.
func (s *TelemetryServer) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
