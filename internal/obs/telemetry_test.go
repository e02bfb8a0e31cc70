//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

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
