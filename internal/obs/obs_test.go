//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps").Add(5)
	r.Counter("steps").Inc()
	if got := r.Counter("steps").Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	r.Gauge("loss").Set(1.5)
	r.Gauge("loss").Set(0.25)
	if got := r.Gauge("loss").Value(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i))
				if i%100 == 0 {
					r.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h").Stats().Count; got != 8000 {
		t.Fatalf("hist count = %d, want 8000", got)
	}
}

// TestHistogramQuantilesUniform checks the streaming quantile estimates on a
// known distribution: uniform 1..10000 has p50≈5000, p95≈9500, p99≈9900.
// The exponential buckets guarantee ~10% relative error.
func TestHistogramQuantilesUniform(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		h.Observe(1 + rng.Float64()*9999)
	}
	st := h.Stats()
	for _, tc := range []struct {
		got, want float64
	}{
		{st.P50, 5000}, {st.P95, 9500}, {st.P99, 9900},
	} {
		if rel := math.Abs(tc.got-tc.want) / tc.want; rel > 0.15 {
			t.Fatalf("quantile %v, want %v (rel err %.3f)", tc.got, tc.want, rel)
		}
	}
	if st.Count != 50000 {
		t.Fatalf("count = %d", st.Count)
	}
	wantMean := 5000.5
	if mean := st.Sum / float64(st.Count); math.Abs(mean-wantMean) > 100 {
		t.Fatalf("mean = %v, want ≈%v", mean, wantMean)
	}
}

// TestHistogramQuantilesExponential covers a heavy-tailed fixture:
// Exp(rate=1) has p50=ln2≈0.693, p95≈2.996, p99≈4.605.
func TestHistogramQuantilesExponential(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50000; i++ {
		h.Observe(rng.ExpFloat64())
	}
	st := h.Stats()
	for _, tc := range []struct {
		got, want float64
	}{
		{st.P50, math.Ln2}, {st.P95, 2.9957}, {st.P99, 4.6052},
	} {
		if rel := math.Abs(tc.got-tc.want) / tc.want; rel > 0.15 {
			t.Fatalf("quantile %v, want %v (rel err %.3f)", tc.got, tc.want, rel)
		}
	}
}

// TestHistogramConstant: min/max clamping makes a constant stream exact.
func TestHistogramConstant(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(0.125)
	}
	st := h.Stats()
	if st.P50 != 0.125 || st.P95 != 0.125 || st.P99 != 0.125 {
		t.Fatalf("constant quantiles = %+v, want exactly 0.125", st)
	}
	if st.Min != 0.125 || st.Max != 0.125 {
		t.Fatalf("min/max = %v/%v", st.Min, st.Max)
	}
}

func TestHistogramEmptyAndEdgeValues(t *testing.T) {
	h := NewHistogram()
	if st := h.Stats(); st.Count != 0 || st.P99 != 0 {
		t.Fatalf("empty stats = %+v", st)
	}
	// Zero, negative and NaN-adjacent values land in the underflow bucket
	// without panicking.
	h.Observe(0)
	h.Observe(-3)
	h.Observe(1e30) // beyond histMax -> overflow bucket
	if st := h.Stats(); st.Count != 3 {
		t.Fatalf("count = %d", st.Count)
	}
}

// TestQuantileEdgeCases pins the histogram's boundary behavior: empty
// histograms report zeros everywhere, and a single observation reports
// itself at every quantile (bucket interpolation clamped to exact bounds).
func TestQuantileEdgeCases(t *testing.T) {
	h := NewHistogram()
	if q := h.Quantile(0.5); q != 0 {
		t.Fatalf("empty quantile = %v, want 0", q)
	}
	if s := h.Stats(); s.Count != 0 || s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("empty stats = %+v, want zero value", s)
	}

	h.Observe(0.37)
	s := h.Stats()
	if s.Count != 1 || s.Min != 0.37 || s.Max != 0.37 {
		t.Fatalf("single-observation stats = %+v", s)
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 0.37 {
			t.Fatalf("single-observation q%.2f = %v, want exactly 0.37", q, got)
		}
	}

	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile must be 0")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("bus_bytes_total_latents").Add(1024)
	r.Gauge("diffusion_loss").Set(0.5)
	r.Histogram("h").Observe(2)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters["bus_bytes_total_latents"] != 1024 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if s.Gauges["diffusion_loss"] != 0.5 {
		t.Fatalf("gauges = %v", s.Gauges)
	}
	if s.Histograms["h"].Count != 1 {
		t.Fatalf("histograms = %v", s.Histograms)
	}
}

// chromeFile mirrors the Chrome trace JSON envelope for test parsing.
type chromeFile struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		PID   int            `json:"pid"`
		TID   int            `json:"tid"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestChromeTraceShape verifies the satellite requirements on the trace
// output: valid JSON, non-decreasing timestamps, and strictly matched B/E
// pairs under stack discipline.
func TestChromeTraceShape(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("stacked-train")
	a := tr.StartSpan("ae-train")
	a.SetAttr("clients", 4)
	time.Sleep(time.Millisecond)
	a.End()
	b := tr.StartSpan("diffusion-train")
	b.End()
	root.End()
	leftOpen := tr.StartSpan("synthesis") // auto-closed at export
	_ = leftOpen

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var f chromeFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(f.TraceEvents) != 8 {
		t.Fatalf("events = %d, want 8 (4 spans x B/E)", len(f.TraceEvents))
	}
	prev := -1.0
	var stack []string
	for _, ev := range f.TraceEvents {
		if ev.TS < prev {
			t.Fatalf("ts not monotonic: %v after %v", ev.TS, prev)
		}
		prev = ev.TS
		switch ev.Phase {
		case "B":
			stack = append(stack, ev.Name)
		case "E":
			if len(stack) == 0 {
				t.Fatalf("E event %q without matching B", ev.Name)
			}
			if top := stack[len(stack)-1]; top != ev.Name {
				t.Fatalf("E event %q does not match open span %q", ev.Name, top)
			}
			stack = stack[:len(stack)-1]
		default:
			t.Fatalf("unexpected phase %q", ev.Phase)
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed B events: %v", stack)
	}
}

func TestTracerSpansHierarchy(t *testing.T) {
	tr := NewTracer()
	root := tr.StartSpan("run")
	c := tr.StartSpan("phase-1")
	c.SetAttr("rows", 100)
	c.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Name != "run" || spans[1].Name != "phase-1" {
		t.Fatalf("span order = %v", spans)
	}
	if spans[1].Parent != "run" {
		t.Fatalf("child parent = %q", spans[1].Parent)
	}
	if spans[1].Attrs["rows"] != 100 && spans[1].Attrs["rows"] != float64(100) {
		t.Fatalf("attrs = %v", spans[1].Attrs)
	}
	if spans[0].DurSec < spans[1].DurSec {
		t.Fatal("parent duration should cover child")
	}
}

// TestRecorderNilSafe: a nil recorder and all handles derived from it are
// valid no-ops — this is the contract the hot paths rely on.
func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.TrainStep("diffusion", 1.0, 32, time.Millisecond)
	r.Message("latents", 100, time.Microsecond)
	sp := r.StartSpan("phase")
	sp.SetAttr("k", "v")
	sp.End()
	if snap := r.Snapshot(); snap.Counters != nil {
		t.Fatal("nil recorder snapshot should be zero")
	}
	var tr *Tracer
	if tr.StartSpan("x") != nil {
		t.Fatal("nil tracer should hand out nil spans")
	}
	if tr.Spans() != nil {
		t.Fatal("nil tracer Spans should be nil")
	}
}

// TestNilReceiversAreNoOps calls every exported method of every pointer type
// the package hands out on a nil receiver, with zero arguments (io.Discard
// for a writer), and requires none to panic: "nil is telemetry off" holds for
// the whole surface, not only the methods the hot paths happen to call. A new
// handle type belongs in the list.
func TestNilReceiversAreNoOps(t *testing.T) {
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	for _, h := range []any{
		(*Recorder)(nil), (*Tracer)(nil), (*Span)(nil), (*Registry)(nil),
		(*Counter)(nil), (*Gauge)(nil), (*Histogram)(nil),
		(*FlightRecorder)(nil),
	} {
		v := reflect.ValueOf(h)
		for i := 0; i < v.NumMethod(); i++ {
			name := v.Type().String() + "." + v.Type().Method(i).Name
			m := v.Method(i)
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				if in := m.Type().In(j); in == writer {
					args[j] = reflect.ValueOf(io.Discard)
				} else {
					args[j] = reflect.Zero(in)
				}
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s on a nil receiver panics: %v", name, p)
					}
				}()
				m.Call(args)
			}()
		}
	}
}

func TestRecorderMetrics(t *testing.T) {
	r := NewRecorder()
	r.TrainStep("ae", 2.5, 64, 2*time.Millisecond)
	r.TrainStep("ae", 2.0, 64, 2*time.Millisecond)
	r.Message("latents", 4096, time.Millisecond)
	s := r.Snapshot()
	if s.Counters["ae_steps_total"] != 2 || s.Counters["ae_rows_total"] != 128 {
		t.Fatalf("train counters = %v", s.Counters)
	}
	if s.Gauges["ae_loss"] != 2.0 {
		t.Fatalf("loss gauge = %v", s.Gauges)
	}
	if s.Counters["bus_bytes_total_latents"] != 4096 {
		t.Fatalf("bus counters = %v", s.Counters)
	}
	if h := s.Histograms["ae_step_seconds"]; h.Count != 2 || h.Sum < 0.003 {
		t.Fatalf("step histogram = %+v", h)
	}
}

// TestTrainEventsConcurrentClients: the AE phase steps every client's
// autoencoder on its own goroutine against one recorder and one stage, so
// no step or row may be lost (run under -race by make race).
func TestTrainEventsConcurrentClients(t *testing.T) {
	const goroutines, steps = 8, 5000
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				r.TrainStep("ae", 1.0, 32, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if n := s.Counters["ae_steps_total"]; n != goroutines*steps {
		t.Fatalf("ae_steps_total = %d after %d concurrent steps", n, goroutines*steps)
	}
	if n := s.Counters["ae_rows_total"]; n != 32*goroutines*steps {
		t.Fatalf("ae_rows_total = %d, want %d", n, 32*goroutines*steps)
	}
	if h := s.Histograms["ae_step_seconds"]; h.Count != goroutines*steps {
		t.Fatalf("step histogram count = %d, want %d", h.Count, goroutines*steps)
	}
}
