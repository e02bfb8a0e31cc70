package obs

import (
	"sync/atomic"
	"time"
)

// Recorder bundles a metrics registry and a tracer into the single
// telemetry sink that instrumented code holds. A nil *Recorder is the
// default and means "telemetry off": every method (and every span it hands
// out) guards the nil receiver, so hot paths pay one pointer comparison and
// nothing else. Instrumented loops read the clock through the recorder's
// nil-gated Now/Since, so a run without telemetry never reads the clock:
//
//	t0 := m.Rec.Now() // zero Time when telemetry is off
//	loss := step()
//	if m.Rec != nil {
//		m.Rec.TrainStep("diffusion", loss, batch, m.Rec.Since(t0))
//	}
type Recorder struct {
	Reg   *Registry
	Trace *Tracer
	// Flight, when non-nil, receives a bounded trail of recent operations
	// (train steps, span ends, bus traffic) for post-mortem dumps. Attach it
	// with SetFlight so the span-end hook is installed too.
	Flight *FlightRecorder

	flow atomic.Uint64
}

// NewRecorder creates an enabled recorder with a fresh registry and tracer.
func NewRecorder() *Recorder {
	return &Recorder{Reg: NewRegistry(), Trace: NewTracer()}
}

// NewPartyRecorder builds a recorder for one party of a multi-actor run: it
// shares reg — so metrics from every party aggregate under their canonical
// names — but owns a private tracer on its own Chrome-trace process lane
// (pid, labelled name). Merge the parties' traces with MergeChromeTraces.
func NewPartyRecorder(reg *Registry, pid int, name string) *Recorder {
	tr := NewTracer()
	tr.SetProcess(pid, name)
	return &Recorder{Reg: reg, Trace: tr}
}

// SetFlight attaches the flight recorder and installs the span-end hook
// that notes finished spans, so a post-mortem dump shows which phases
// completed before the failure. A nil recorder or nil ring is a no-op.
func (r *Recorder) SetFlight(fr *FlightRecorder) {
	if r == nil || fr == nil {
		return
	}
	r.Flight = fr
	r.Trace.SetOnSpanEnd(func(sp SpanInfo) {
		fr.Note("span", sp.Name, "", sp.DurSec)
	})
}

// NextFlow issues a flow id for cross-party message stitching, unique across
// processes because the tracer's pid is folded into the high bits. Zero (from
// a nil recorder) means "no trace context".
func (r *Recorder) NextFlow() uint64 {
	if r == nil {
		return 0
	}
	return uint64(r.Trace.PID())<<32 | (r.flow.Add(1) & 0xffffffff)
}

// Now reads the wall clock, or returns the zero Time on a nil recorder. The
// deterministic packages (tensor, nn, diffusion, autoencoder, core, silo)
// read time only through an enabled recorder, so a telemetry-off run never
// observes the clock at all.
func (r *Recorder) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Since returns the time elapsed since a t0 captured by Now. A nil recorder
// or a zero t0 (telemetry was off at the start of the measured region)
// yields zero.
func (r *Recorder) Since(t0 time.Time) time.Duration {
	if r == nil || t0.IsZero() {
		return 0
	}
	return time.Since(t0)
}

// TrainStep records one optimisation step of the named training stage
// ("ae", "diffusion", "gan", "gbdt", "e2e"): it bumps
// <stage>_steps_total and <stage>_rows_total, sets the <stage>_loss gauge,
// and observes the step duration in <stage>_step_seconds — enough to derive
// loss curves and rows/sec throughput from a snapshot.
func (r *Recorder) TrainStep(stage string, loss float64, rows int, d time.Duration) {
	if r == nil {
		return
	}
	r.Reg.Counter(stage + "_steps_total").Inc()
	r.Reg.Counter(stage + "_rows_total").Add(int64(rows))
	r.Reg.Gauge(stage + "_loss").Set(loss)
	r.Reg.Histogram(stage + "_step_seconds").Observe(d.Seconds())
	r.Flight.Note("train", stage, "", loss)
}

// TrainAllocs records the heap-allocation count of a finished training loop
// of the named stage: allocs is a runtime.MemStats.Mallocs delta measured
// across steps optimisation steps. It lands in the <stage>_allocs_per_step
// gauge, the perf counterpart to <stage>_step_seconds. The delta is
// whole-process: a loop that overlaps other work — silofuse-bench's
// concurrent cells — counts that work's allocations too. Training loops
// re-running within one process overwrite the gauge, so a snapshot reflects
// the most recent loop — steady state, once workspaces are warm.
func (r *Recorder) TrainAllocs(stage string, steps int, allocs uint64) {
	if r == nil || steps <= 0 {
		return
	}
	r.Reg.Gauge(stage + "_allocs_per_step").Set(float64(allocs) / float64(steps))
}

// Message records one transport send of the given message kind: it bumps
// bus_messages_total_<kind> and bus_bytes_total_<kind> and observes the
// send latency in bus_send_seconds_<kind>.
func (r *Recorder) Message(kind string, bytes int64, d time.Duration) {
	if r == nil {
		return
	}
	r.Reg.Counter("bus_messages_total_" + kind).Inc()
	r.Reg.Counter("bus_bytes_total_" + kind).Add(bytes)
	r.Reg.Histogram("bus_send_seconds_" + kind).Observe(d.Seconds())
	r.Flight.Note("send", kind, "", float64(bytes))
}

// WireCodec records one codec-framed transport send: raw is the modelled
// native-float64 wire cost, enc the encoded bytes actually framed, and
// maxErr/meanErr the caller's RUNNING error aggregates for this
// (codec, kind) stream — the caller accumulates, the recorder just stores.
// Metrics land under wire_<field>_<codec>_<kind> (codec names carry no
// underscore, so consumers split on the first "_" after the prefix):
// wire_messages_total_, wire_raw_bytes_total_, wire_bytes_total_ counters
// and wire_err_max_, wire_err_mean_ gauges.
func (r *Recorder) WireCodec(codec, kind string, raw, enc int64, maxErr, meanErr float64) {
	if r == nil {
		return
	}
	suffix := codec + "_" + kind
	r.Reg.Counter("wire_messages_total_" + suffix).Inc()
	r.Reg.Counter("wire_raw_bytes_total_" + suffix).Add(raw)
	r.Reg.Counter("wire_bytes_total_" + suffix).Add(enc)
	r.Reg.Gauge("wire_err_max_" + suffix).Set(maxErr)
	r.Reg.Gauge("wire_err_mean_" + suffix).Set(meanErr)
}

// CorruptPayload records a checksum-failed envelope:
// bus_corrupt_total_<kind>.
func (r *Recorder) CorruptPayload(kind string) {
	if r == nil {
		return
	}
	r.Reg.Counter("bus_corrupt_total_" + kind).Inc()
	r.Flight.Note("corrupt", kind, "", 0)
}

// PeerDown notes a peer-death detection for the named peer in the flight
// recorder, whose postmortem dump says which peer died.
func (r *Recorder) PeerDown(peer string) {
	if r == nil {
		return
	}
	r.Flight.Note("peer-down", "", peer, 0)
}

// StartSpan opens a trace span (nil span when disabled).
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return r.Trace.StartSpan(name)
}

// Snapshot returns the metric snapshot (zero value when disabled).
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	return r.Reg.Snapshot()
}
