//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestEventWriter(t *testing.T) {
	var buf bytes.Buffer
	ew := NewEventWriter(&buf)
	ew.Emit("run-start", map[string]any{"run": "x"})
	ew.Emit("train", map[string]any{"loss": 0.5, "type": "overridden"})
	var nilEW *EventWriter
	nilEW.Emit("ignored", nil) // nil sink must be a no-op
	if err := nilEW.Close(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	for i, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec["seq"] != float64(i) {
			t.Fatalf("line %d seq = %v, want %d", i, rec["seq"], i)
		}
		if _, err := time.Parse(time.RFC3339Nano, rec["time"].(string)); err != nil {
			t.Fatalf("line %d time: %v", i, err)
		}
		if _, ok := rec["t_sec"].(float64); !ok {
			t.Fatalf("line %d missing t_sec: %v", i, rec)
		}
	}
	var second map[string]any
	_ = json.Unmarshal([]byte(lines[1]), &second)
	if second["type"] != "train" {
		t.Fatalf("reserved key type not enforced: %v", second)
	}
}

func TestEventWriterConcurrent(t *testing.T) {
	var buf bytes.Buffer
	ew := NewEventWriter(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ew.Emit("train", map[string]any{"i": i})
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("lines = %d, want 400", len(lines))
	}
	seen := make(map[float64]bool)
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("interleaved write produced bad JSON: %v", err)
		}
		seq := rec["seq"].(float64)
		if seen[seq] {
			t.Fatalf("duplicate seq %v", seq)
		}
		seen[seq] = true
	}
}

// TestOpenEventLogAppends: successive writers on the same path accumulate.
func TestOpenEventLogAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "events.jsonl")
	for i := 0; i < 2; i++ {
		ew, err := OpenEventLog(path)
		if err != nil {
			t.Fatal(err)
		}
		ew.Emit("run-start", nil)
		if err := ew.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Fatalf("appended lines = %d, want 2", n)
	}
}

// TestRecorderEvents: SetEvents streams train records every
// trainEventEvery steps and phase records when spans end.
func TestRecorderEvents(t *testing.T) {
	var buf bytes.Buffer
	r := NewRecorder()
	r.SetEvents(NewEventWriter(&buf))
	sp := r.StartSpan("ae-train")
	for i := 0; i < 2*trainEventEvery; i++ {
		r.TrainStep("ae", 1.0, 32, time.Millisecond)
	}
	r.Message("latents", 2048, time.Microsecond)
	sp.SetAttr("clients", 2)
	sp.End()

	var train, phase int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		switch rec["type"] {
		case "train":
			train++
			if rec["stage"] != "ae" {
				t.Fatalf("train event stage = %v", rec["stage"])
			}
		case "phase":
			phase++
			if rec["name"] != "ae-train" {
				t.Fatalf("phase event name = %v", rec["name"])
			}
			byKind, ok := rec["bus_bytes_by_kind"].(map[string]any)
			if !ok || byKind["latents"] != float64(2048) {
				t.Fatalf("phase event bus_bytes_by_kind = %v", rec["bus_bytes_by_kind"])
			}
		}
	}
	if train != 2 { // steps 50 and 100
		t.Fatalf("train events = %d, want 2", train)
	}
	if phase != 1 {
		t.Fatalf("phase events = %d, want 1", phase)
	}
}

// TestTrainEventsConcurrentClients: the AE phase steps every client's
// autoencoder on its own goroutine against one recorder and one stage, so
// the gate must act on each call's own post-increment count — exactly one
// train event per multiple of trainEventEvery, none doubled, none skipped.
func TestTrainEventsConcurrentClients(t *testing.T) {
	const goroutines, steps = 8, 5000
	var buf bytes.Buffer
	r := NewRecorder()
	r.SetEvents(NewEventWriter(&buf))
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

	seen := make(map[float64]bool)
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		step := rec["step"].(float64)
		if seen[step] {
			t.Fatalf("train event for step %v emitted twice", step)
		}
		seen[step] = true
	}
	if want := goroutines * steps / trainEventEvery; len(seen) != want {
		t.Fatalf("train events = %d, want %d (a multiple of %d was skipped)", len(seen), want, trainEventEvery)
	}
}

// TestNextFlowUnique: flow ids never collide across parties because the pid
// occupies the high bits.
func TestNextFlowUnique(t *testing.T) {
	reg := NewRegistry()
	a := NewPartyRecorder(reg, 1, "coord")
	b := NewPartyRecorder(reg, 2, "c0")
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		for _, r := range []*Recorder{a, b} {
			id := r.NextFlow()
			if id == 0 || seen[id] {
				t.Fatalf("flow id %d duplicated or zero", id)
			}
			seen[id] = true
		}
	}
	var nilRec *Recorder
	if nilRec.NextFlow() != 0 {
		t.Fatal("nil recorder must issue zero flow ids")
	}
}

// mergeFixture builds a trace document with a fixed epoch for deterministic
// merge tests.
func mergeFixture(t *testing.T, pid int, name string, epoch int64, flowID uint64, send bool) *bytes.Buffer {
	t.Helper()
	tr := NewTracer()
	tr.SetProcess(pid, name)
	tr.epoch = epoch // fixed for determinism; fields are package-internal
	sp := tr.StartSpan("work")
	if send {
		tr.FlowSend("latents", flowID)
	} else {
		tr.FlowRecv("latents", flowID)
	}
	sp.End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestMergeChromeTraces: two per-party traces merge into one document with
// both process lanes labelled, timestamps aligned by epoch, and the flow
// start/finish pair stitched by id.
func TestMergeChromeTraces(t *testing.T) {
	const flowID = uint64(1)<<32 | 7
	coord := mergeFixture(t, 1, "coord", 1_000_000, flowID, true)
	client := mergeFixture(t, 2, "c0", 1_500_000, flowID, false)

	var out bytes.Buffer
	if err := MergeChromeTraces(&out, coord, client); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int            `json:"pid"`
			ID    uint64         `json:"id"`
			BP    string         `json:"bp"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		EpochMicros int64 `json:"epochMicros"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.EpochMicros != 1_000_000 {
		t.Fatalf("merged epoch = %d, want the earliest input epoch", doc.EpochMicros)
	}

	pids := make(map[int]bool)
	lanes := make(map[string]int)
	var flowPhases []string
	minTSByPID := map[int]float64{}
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
		if ev.Phase == "M" && ev.Name == "process_name" {
			lanes[ev.Args["name"].(string)] = ev.PID
		}
		if ev.ID == flowID {
			flowPhases = append(flowPhases, ev.Phase)
			if ev.Phase == "f" && ev.BP != "e" {
				t.Fatalf("flow finish bp = %q, want e", ev.BP)
			}
		}
		if ev.Phase != "M" {
			if cur, ok := minTSByPID[ev.PID]; !ok || ev.TS < cur {
				minTSByPID[ev.PID] = ev.TS
			}
		}
	}
	if len(pids) != 2 || !pids[1] || !pids[2] {
		t.Fatalf("merged pids = %v, want {1, 2}", pids)
	}
	if lanes["coord"] != 1 || lanes["c0"] != 2 {
		t.Fatalf("process lanes = %v", lanes)
	}
	if len(flowPhases) != 2 {
		t.Fatalf("flow events = %v, want one s and one f", flowPhases)
	}
	// The later-starting process's events shift by the epoch delta (500ms).
	if minTSByPID[2] < 500_000 {
		t.Fatalf("client events not shifted: min ts = %v", minTSByPID[2])
	}
	// Events are globally sorted by timestamp.
	prev := -1.0
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "M" {
			continue
		}
		if ev.TS < prev {
			t.Fatalf("merged ts not sorted: %v after %v", ev.TS, prev)
		}
		prev = ev.TS
	}
}

// TestMergeChromeTracesPIDCollision: inputs that reused the same pid are
// remapped onto distinct lanes instead of being conflated.
func TestMergeChromeTracesPIDCollision(t *testing.T) {
	a := mergeFixture(t, 1, "a", 1_000_000, 0, true)
	b := mergeFixture(t, 1, "b", 1_000_000, 0, true)
	var out bytes.Buffer
	if err := MergeChromeTraces(&out, a, b); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	pids := make(map[int]bool)
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
	}
	if len(pids) != 2 {
		t.Fatalf("colliding inputs share lanes: pids = %v", pids)
	}
}

// TestWriteChromeTraceProcessName: SetProcess prepends exactly one metadata
// record, and the default tracer emits none (pinned by TestChromeTraceShape).
func TestWriteChromeTraceProcessName(t *testing.T) {
	tr := NewTracer()
	tr.SetProcess(4, "c2")
	tr.StartSpan("x").End()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d, want metadata + B + E", len(doc.TraceEvents))
	}
	meta := doc.TraceEvents[0]
	if meta.Phase != "M" || meta.Name != "process_name" || meta.PID != 4 ||
		fmt.Sprint(meta.Args["name"]) != "c2" {
		t.Fatalf("metadata record = %+v", meta)
	}
	for _, ev := range doc.TraceEvents[1:] {
		if ev.PID != 4 {
			t.Fatalf("span event pid = %d, want 4", ev.PID)
		}
	}
}
