package silo

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"silofuse/internal/obs"
	"silofuse/internal/tensor"
)

// traceDoc mirrors the Chrome trace envelope for test parsing.
type traceDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		PID   int            `json:"pid"`
		ID    uint64         `json:"id"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
}

func parseTrace(t *testing.T, tr *obs.Tracer) traceDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// flowIDs collects the ids of flow events with the given phase ("s" or "f").
func (d traceDoc) flowIDs(phase string) map[uint64]bool {
	out := make(map[uint64]bool)
	for _, ev := range d.TraceEvents {
		if ev.Phase == phase && ev.ID != 0 {
			out[ev.ID] = true
		}
	}
	return out
}

// TestFlowContextLocalBus: a traced LocalBus stamps envelopes with flow ids
// and records matching flow-start/finish events around every delivery.
func TestFlowContextLocalBus(t *testing.T) {
	b := NewLocalBus()
	rec := obs.NewRecorder()
	b.SetRecorder(rec)

	e := &Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: tensor.New(4, 3)}
	if err := b.Send(e); err != nil {
		t.Fatal(err)
	}
	if e.Flow == 0 {
		t.Fatal("traced send left Flow zero")
	}
	got, err := b.Recv("coord")
	if err != nil {
		t.Fatal(err)
	}
	if got.Flow != e.Flow {
		t.Fatalf("received Flow = %d, want %d", got.Flow, e.Flow)
	}

	doc := parseTrace(t, rec.Trace)
	if !doc.flowIDs("s")[e.Flow] || !doc.flowIDs("f")[e.Flow] {
		t.Fatalf("trace missing flow pair for id %d", e.Flow)
	}
}

// TestFlowContextUntraced: without a recorder the envelope carries no trace
// context at all (and therefore no extra gob wire bytes).
func TestFlowContextUntraced(t *testing.T) {
	b := NewLocalBus()
	e := &Envelope{From: "c0", To: "coord", Kind: KindSynthReq}
	if err := b.Send(e); err != nil {
		t.Fatal(err)
	}
	if e.Flow != 0 {
		t.Fatalf("untraced send stamped Flow = %d", e.Flow)
	}
	if _, err := b.Recv("coord"); err != nil {
		t.Fatal(err)
	}
}

// TestTraceContextTCP: flow ids survive the gob wire format in both
// directions, each endpoint records its half of the flow on its own process
// lane, and the merged trace holds both lanes. Run under -race this also
// guards the tracer against the transports' goroutines.
func TestTraceContextTCP(t *testing.T) {
	reg := obs.NewRegistry()
	coordRec := obs.NewPartyRecorder(reg, 1, "coord")
	peerRec := obs.NewPartyRecorder(reg, 2, "c0")

	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	hub.SetRecorder(coordRec)
	peer, err := DialHub("c0", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	peer.SetRecorder(peerRec)

	// Uplink: the peer stamps a flow id whose high bits carry its pid.
	up := &Envelope{From: "c0", To: "coord", Kind: KindLatents,
		Payload: tensor.New(6, 2).Randn(rand.New(rand.NewSource(1)), 1)}
	if err := peer.Send(up); err != nil {
		t.Fatal(err)
	}
	gotUp, err := hub.Recv("coord")
	if err != nil {
		t.Fatal(err)
	}
	if gotUp.Flow != up.Flow || up.Flow>>32 != 2 {
		t.Fatalf("uplink flow = %d (sent %d), want pid 2 in high bits", gotUp.Flow, up.Flow)
	}

	// Downlink: the hub stamps its own id.
	down := &Envelope{From: "coord", To: "c0", Kind: KindSynthLatent}
	if err := hub.Send(down); err != nil {
		t.Fatal(err)
	}
	gotDown, err := peer.Recv("c0")
	if err != nil {
		t.Fatal(err)
	}
	if gotDown.Flow != down.Flow || down.Flow>>32 != 1 {
		t.Fatalf("downlink flow = %d (sent %d), want pid 1 in high bits", gotDown.Flow, down.Flow)
	}

	var coordBuf, peerBuf bytes.Buffer
	if err := coordRec.Trace.WriteChromeTrace(&coordBuf); err != nil {
		t.Fatal(err)
	}
	if err := peerRec.Trace.WriteChromeTrace(&peerBuf); err != nil {
		t.Fatal(err)
	}
	coordDoc, peerDoc := decodeDoc(t, coordBuf.Bytes()), decodeDoc(t, peerBuf.Bytes())
	if !peerDoc.flowIDs("s")[up.Flow] || !coordDoc.flowIDs("f")[up.Flow] {
		t.Fatal("uplink flow not recorded as peer-send / hub-recv")
	}
	if !coordDoc.flowIDs("s")[down.Flow] || !peerDoc.flowIDs("f")[down.Flow] {
		t.Fatal("downlink flow not recorded as hub-send / peer-recv")
	}

	var merged bytes.Buffer
	if err := obs.MergeChromeTraces(&merged, &coordBuf, &peerBuf); err != nil {
		t.Fatal(err)
	}
	doc := decodeDoc(t, merged.Bytes())
	pids := make(map[int]bool)
	lanes := make(map[string]bool)
	for _, ev := range doc.TraceEvents {
		pids[ev.PID] = true
		if ev.Phase == "M" && ev.Name == "process_name" {
			lanes[ev.Args["name"].(string)] = true
		}
	}
	if !pids[1] || !pids[2] {
		t.Fatalf("merged pids = %v, want lanes 1 and 2", pids)
	}
	if !lanes["coord"] || !lanes["c0"] {
		t.Fatalf("merged lane labels = %v", lanes)
	}

	if got := hub.Peers(); len(got) != 1 || got[0] != "c0" {
		t.Fatalf("hub.Peers() = %v, want [c0]", got)
	}
}

func decodeDoc(t *testing.T, data []byte) traceDoc {
	t.Helper()
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestStackedPartyRecorders runs the full pipeline with per-party recorders
// over TCP-free local transports and checks that coordinator and client
// spans land on their own lanes while metrics aggregate in the shared
// registry.
func TestStackedPartyRecorders(t *testing.T) {
	tb := loanTable(t, 120)
	cfg := smallConfig(2)
	cfg.AEIters, cfg.DiffIters = 10, 10
	bus := NewLocalBus()
	p, err := NewPipeline(bus, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	coordRec := obs.NewPartyRecorder(reg, 1, "coord")
	clientRecs := []*obs.Recorder{
		obs.NewPartyRecorder(reg, 2, "c0"),
		obs.NewPartyRecorder(reg, 3, "c1"),
	}
	bus.SetRecorder(coordRec)
	if err := p.SetPartyRecorders(coordRec, clientRecs); err != nil {
		t.Fatal(err)
	}
	if err := p.SetPartyRecorders(coordRec, clientRecs[:1]); err == nil {
		t.Fatal("mismatched recorder count should error")
	}

	if _, _, err := p.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SynthesizePartitioned(0, 10, false); err != nil {
		t.Fatal(err)
	}

	coordSpans := map[string]bool{}
	for _, sp := range coordRec.Trace.Spans() {
		coordSpans[sp.Name] = true
	}
	for _, want := range []string{"ae-train", "diffusion-train", "synthesis"} {
		if !coordSpans[want] {
			t.Fatalf("coordinator lane missing %q in %v", want, coordSpans)
		}
	}
	for i, r := range clientRecs {
		spans := map[string]bool{}
		for _, sp := range r.Trace.Spans() {
			spans[sp.Name] = true
		}
		if !spans["ae-train-local"] || !spans["decode-local"] {
			t.Fatalf("client %d lane = %v, want ae-train-local and decode-local", i, spans)
		}
	}

	// The shared registry aggregates training steps from every client.
	snap := coordRec.Snapshot()
	if snap.Counters["ae_steps_total"] != int64(2*cfg.AEIters) {
		t.Fatalf("ae_steps_total = %d, want %d", snap.Counters["ae_steps_total"], 2*cfg.AEIters)
	}
}
