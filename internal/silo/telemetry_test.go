package silo

import (
	"math/rand"
	"sync"
	"testing"

	"silofuse/internal/obs"
	"silofuse/internal/tensor"
)

// TestStatsByKindLocalBus: the local bus attributes modelled wire bytes to
// every message kind it carries.
func TestStatsByKindLocalBus(t *testing.T) {
	b := NewLocalBus()
	lat := &Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: tensor.New(4, 3)}
	req := &Envelope{From: "c0", To: "coord", Kind: KindSynthReq}
	for _, e := range []*Envelope{lat, lat, req} {
		if err := b.Send(e); err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if got := st.ByKind[KindLatents]; got != 2*lat.WireSize() {
		t.Fatalf("latents bytes = %d, want %d", got, 2*lat.WireSize())
	}
	if got := st.ByKind[KindSynthReq]; got != req.WireSize() {
		t.Fatalf("synth-req bytes = %d, want %d", got, req.WireSize())
	}
	var sum int64
	for _, v := range st.ByKind {
		sum += v
	}
	if sum != st.Bytes {
		t.Fatalf("ByKind sums to %d, total %d", sum, st.Bytes)
	}
}

// TestStatsByKindTCP: both TCP endpoints attribute real measured bytes to
// message kinds.
func TestStatsByKindTCP(t *testing.T) {
	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	peer, err := DialHub("c0", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	m := tensor.New(8, 4).Randn(rand.New(rand.NewSource(1)), 1)
	for _, e := range []*Envelope{
		{From: "c0", To: "coord", Kind: KindLatents, Payload: m},
		{From: "c0", To: "coord", Kind: KindSynthReq},
	} {
		if err := peer.Send(e); err != nil {
			t.Fatal(err)
		}
		if _, err := hub.Recv("coord"); err != nil {
			t.Fatal(err)
		}
	}
	if err := hub.Send(&Envelope{From: "coord", To: "c0", Kind: KindSynthLatent, Payload: m}); err != nil {
		t.Fatal(err)
	}
	if _, err := peer.Recv("c0"); err != nil {
		t.Fatal(err)
	}

	ps := peer.Stats()
	if ps.ByKind[KindLatents] <= 0 || ps.ByKind[KindSynthReq] <= 0 {
		t.Fatalf("peer ByKind = %v, want measured bytes for latents and synth-req", ps.ByKind)
	}
	if ps.ByKind[KindLatents] <= ps.ByKind[KindSynthReq] {
		t.Fatalf("payload message (%d B) should outweigh control (%d B)",
			ps.ByKind[KindLatents], ps.ByKind[KindSynthReq])
	}
	hs := hub.Stats()
	if hs.ByKind[KindSynthLatent] <= 0 {
		t.Fatalf("hub ByKind = %v, want measured bytes for synth-latent", hs.ByKind)
	}
	if hs.Messages != 1 {
		t.Fatalf("hub messages = %d, want 1", hs.Messages)
	}
}

// TestTCPHubConcurrentHammer drives concurrent sends through both endpoints
// of a live hub while stats are read in parallel; run under -race this
// guards the stats maps and the shared gob streams.
func TestTCPHubConcurrentHammer(t *testing.T) {
	const peers, msgs = 3, 40
	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	ps := make([]*TCPPeer, peers)
	names := []string{"c0", "c1", "c2"}
	for i := range ps {
		p, err := DialHub(names[i], hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		ps[i] = p
	}
	// Wait until the hub has registered every peer (hello processing is
	// asynchronous): a registered peer can be sent to without error.
	for _, name := range names {
		for {
			if err := hub.Send(&Envelope{From: "coord", To: name, Kind: KindSynthReq}); err == nil {
				break
			}
		}
	}

	payload := tensor.New(4, 4).Randn(rand.New(rand.NewSource(7)), 1)
	var wg sync.WaitGroup
	// Uplink: every peer floods the hub inbox.
	for _, p := range ps {
		wg.Add(1)
		go func(p *TCPPeer) {
			defer wg.Done()
			for k := 0; k < msgs; k++ {
				kind := KindLatents
				if k%3 == 0 {
					kind = KindActivation
				}
				if err := p.Send(&Envelope{From: p.Name, To: "coord", Kind: kind, Payload: payload}); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	// Downlink: two goroutines per peer share one gob stream, exercising the
	// per-peer send mutex.
	for _, name := range names {
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				for k := 0; k < msgs/2; k++ {
					if err := hub.Send(&Envelope{From: "coord", To: name, Kind: KindSynthLatent, Payload: payload}); err != nil {
						t.Error(err)
						return
					}
				}
			}(name)
		}
	}
	// Concurrent stats readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				_ = hub.Stats()
				_ = ps[0].Stats()
			}
		}()
	}
	// Drain both directions.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < peers*msgs; k++ {
			if _, err := hub.Recv("coord"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, p := range ps {
		wg.Add(1)
		go func(p *TCPPeer) {
			defer wg.Done()
			for k := 0; k < msgs+1; k++ { // +1 for the registration probe
				if _, err := p.Recv(p.Name); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	hs := hub.Stats()
	wantHub := int64(peers*msgs + peers) // downlink + registration probes
	if hs.Messages != wantHub {
		t.Fatalf("hub messages = %d, want %d", hs.Messages, wantHub)
	}
	if hs.ByKind[KindSynthLatent] <= 0 {
		t.Fatalf("hub ByKind = %v", hs.ByKind)
	}
	for _, p := range ps {
		st := p.Stats()
		if st.Messages != msgs {
			t.Fatalf("peer %s messages = %d, want %d", p.Name, st.Messages, msgs)
		}
		if st.ByKind[KindLatents] <= 0 || st.ByKind[KindActivation] <= 0 {
			t.Fatalf("peer %s ByKind = %v", p.Name, st.ByKind)
		}
	}
}

// TestStackedPipelineTelemetry runs Algorithm 1 + 2 with a recorder attached
// and checks the full telemetry surface: the four phase spans, per-stage
// training counters, and per-kind transport counters that agree with the
// bus's own accounting.
func TestStackedPipelineTelemetry(t *testing.T) {
	tb := loanTable(t, 120)
	cfg := smallConfig(2)
	cfg.AEIters, cfg.DiffIters = 20, 20
	bus := NewLocalBus()
	p, err := NewPipeline(bus, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	p.SetRecorder(rec)
	if _, _, err := p.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.SynthesizePartitioned(0, 10, false); err != nil {
		t.Fatal(err)
	}

	got := map[string]bool{}
	for _, sp := range rec.Trace.Spans() {
		got[sp.Name] = true
	}
	for _, want := range []string{"ae-train", "latent-ship", "diffusion-train", "synthesis"} {
		if !got[want] {
			t.Fatalf("missing phase span %q in %v", want, got)
		}
	}

	snap := rec.Snapshot()
	if snap.Counters["ae_steps_total"] != int64(2*cfg.AEIters) {
		t.Fatalf("ae_steps_total = %d, want %d", snap.Counters["ae_steps_total"], 2*cfg.AEIters)
	}
	if snap.Counters["diffusion_steps_total"] != int64(cfg.DiffIters) {
		t.Fatalf("diffusion_steps_total = %d, want %d", snap.Counters["diffusion_steps_total"], cfg.DiffIters)
	}
	st := bus.Stats()
	for _, kind := range []Kind{KindLatents, KindSynthReq, KindSynthLatent} {
		name := "bus_bytes_total_" + string(kind)
		if snap.Counters[name] != st.ByKind[kind] {
			t.Fatalf("%s = %d, bus ByKind = %d", name, snap.Counters[name], st.ByKind[kind])
		}
	}
	if h := snap.Histograms["bus_send_seconds_latents"]; h.Count != 2 {
		t.Fatalf("latents send histogram count = %d, want 2", h.Count)
	}
}
