//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package silo

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"silofuse/internal/autoencoder"
	"silofuse/internal/datagen"
	"silofuse/internal/diffusion"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

func loanTable(t *testing.T, rows int) *tabular.Table {
	t.Helper()
	spec, err := datagen.ByName("loan")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(rows, 21)
}

func smallConfig(clients int) PipelineConfig {
	return PipelineConfig{
		Clients:     clients,
		AE:          autoencoder.Config{Hidden: 64, Embed: 16, LR: 2e-3},
		Diff:        diffusion.ModelConfig{Hidden: 64, Depth: 3, TimeDim: 16, T: 100, LR: 2e-3},
		AEIters:     150,
		DiffIters:   200,
		Batch:       64,
		SynthSteps:  15,
		Seed:        5,
		SplitWidths: false,
	}
}

func TestLocalBusSendRecv(t *testing.T) {
	bus := NewLocalBus()
	m := tensor.New(2, 3).Fill(1)
	if err := bus.Send(&Envelope{From: "a", To: "b", Kind: KindLatents, Payload: m}); err != nil {
		t.Fatal(err)
	}
	e, err := bus.Recv("b")
	if err != nil {
		t.Fatal(err)
	}
	if e.From != "a" || e.Payload.At(1, 2) != 1 {
		t.Fatal("wrong envelope delivered")
	}
}

func TestLocalBusAccounting(t *testing.T) {
	bus := NewLocalBus()
	data := &Envelope{From: "a", To: "b", Kind: KindLatents, Payload: tensor.New(4, 5)}
	ctrl := &Envelope{From: "b", To: "a", Kind: KindSynthReq}
	bus.Send(data)
	bus.Send(ctrl)
	st := bus.Stats()
	if st.Messages != 2 {
		t.Fatalf("messages = %d", st.Messages)
	}
	if st.Bytes != data.WireSize()+ctrl.WireSize() {
		t.Fatalf("bytes = %d, want the two frames' %d + %d", st.Bytes, data.WireSize(), ctrl.WireSize())
	}
	if st.BytesByDir["a->b"] != data.WireSize() || st.ByKind[KindSynthReq] != ctrl.WireSize() {
		t.Fatalf("directional bytes = %v, by kind = %v", st.BytesByDir, st.ByKind)
	}
	// Drain so nothing leaks into other tests.
	bus.Recv("b")
	bus.Recv("a")
}

func TestLocalBusRejectsNoRecipient(t *testing.T) {
	bus := NewLocalBus()
	if err := bus.Send(&Envelope{From: "a"}); err == nil {
		t.Fatal("expected error for missing recipient")
	}
}

// TestEnvelopeWireSize: WireSize is the length of the frame, field by field —
// a header that grows with the names and the dimension varints, 16 bytes
// when the resilient layer stamped the message, nothing for a flow id, and
// the codec's body.
func TestEnvelopeWireSize(t *testing.T) {
	size := func(e *Envelope) int64 {
		t.Helper()
		frame, err := appendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(frame)) != e.WireSize() {
			t.Fatalf("%+v: frame is %d bytes, WireSize says %d", e, len(frame), e.WireSize())
		}
		return e.WireSize()
	}
	ctrl := size(&Envelope{From: "a", To: "b", Kind: KindSynthReq})
	if ctrl != frameMin+2 {
		t.Fatalf("control size = %d, want the smallest frame plus two one-byte names", ctrl)
	}
	if got := size(&Envelope{From: "c12", To: "coord", Kind: KindSynthReq}); got != ctrl+6 {
		t.Fatalf("longer names cost %d, want %d", got, ctrl+6)
	}
	if got := size(&Envelope{From: "a", To: "b", Kind: KindSynthReq, Flow: 1 << 40}); got != ctrl {
		t.Fatalf("flow id costs %d bytes", got-ctrl)
	}
	if got := size(&Envelope{From: "a", To: "b", Kind: KindSynthReq, Seq: 1, Sum: 9}); got != ctrl+16 {
		t.Fatalf("sequencing costs %d bytes, want 16", got-ctrl)
	}
	if got := size(&Envelope{From: "a", To: "b", Kind: KindLatents, Payload: tensor.New(10, 10)}); got != ctrl+int64(codec.F64.EncodedSize(10, 10)) {
		t.Fatalf("10x10 payload size = %d", got)
	}
	if got := size(&Envelope{From: "a", To: "b", Kind: KindLatents, Payload: tensor.New(200, 10)}); got != ctrl+1+int64(codec.F64.EncodedSize(200, 10)) {
		t.Fatalf("200x10 payload size = %d, want one more varint byte for the rows", got)
	}
}

func TestPipelineConstruction(t *testing.T) {
	tb := loanTable(t, 200)
	p, err := NewPipeline(NewLocalBus(), tb, smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Clients) != 4 {
		t.Fatalf("clients = %d", len(p.Clients))
	}
	totalLatent := 0
	totalCols := 0
	for _, c := range p.Clients {
		totalLatent += c.LatentDim()
		totalCols += c.Data.Schema.NumColumns()
	}
	// Latent width = raw feature count, per the paper.
	if totalLatent != tb.Schema.NumColumns() || totalCols != tb.Schema.NumColumns() {
		t.Fatalf("latent %d, cols %d, want %d", totalLatent, totalCols, tb.Schema.NumColumns())
	}
}

// TestStackedTrainingSingleRound is the core communication property: the
// number of uploaded latent messages equals the number of clients no matter
// how many training iterations run, and only synthesis adds messages after.
func TestStackedTrainingSingleRound(t *testing.T) {
	tb := loanTable(t, 300)
	bus := NewLocalBus()
	cfgA := smallConfig(4)
	cfgA.AEIters, cfgA.DiffIters = 40, 50
	p, err := NewPipeline(bus, tb, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	st := bus.Stats()
	if st.Messages != 4 {
		t.Fatalf("stacked training should send exactly one message per client: %d", st.Messages)
	}

	// Train a second pipeline with 4x the iterations: identical traffic.
	bus2 := NewLocalBus()
	cfgB := smallConfig(4)
	cfgB.AEIters, cfgB.DiffIters = 160, 200
	p2, err := NewPipeline(bus2, tb, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p2.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	if got, want := bus2.Stats().Bytes, st.Bytes; got != want {
		t.Fatalf("stacked bytes must be iteration-invariant: %d vs %d", got, want)
	}
}

func TestStackedSynthesisPartitioned(t *testing.T) {
	tb := loanTable(t, 400)
	bus := NewLocalBus()
	p, err := NewPipeline(bus, tb, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	parts, err := p.SynthesizePartitioned(1, 50, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	for i, pt := range parts {
		if pt.Rows() != 50 {
			t.Fatalf("part %d rows = %d", i, pt.Rows())
		}
		if pt.Schema.NumColumns() != p.Clients[i].Data.Schema.NumColumns() {
			t.Fatal("partition schema mismatch")
		}
	}
}

func TestStackedSynthesisShared(t *testing.T) {
	tb := loanTable(t, 400)
	p, err := NewPipeline(NewLocalBus(), tb, smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	out, err := p.SynthesizeShared(0, 80, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 80 || out.Schema.NumColumns() != tb.Schema.NumColumns() {
		t.Fatal("shared synthesis shape wrong")
	}
	// Column order must match the original schema.
	for j, c := range out.Schema.Columns {
		if c.Name != tb.Schema.Columns[j].Name {
			t.Fatal("column order lost in join")
		}
	}
}

func TestSynthesizeInvalidRequester(t *testing.T) {
	tb := loanTable(t, 100)
	p, err := NewPipeline(NewLocalBus(), tb, smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.SynthesizePartitioned(9, 10, false); err == nil {
		t.Fatal("expected invalid requester error")
	}
}

// TestE2ECommunicationGrowsLinearly verifies the Figure 10 contrast: the
// end-to-end pipeline's traffic is proportional to iteration count.
func TestE2ECommunicationGrowsLinearly(t *testing.T) {
	tb := loanTable(t, 200)
	cfg := smallConfig(4)
	cfg.Batch = 32

	run := func(iters int) int64 {
		bus := NewLocalBus()
		p, err := NewE2EPipeline(bus, tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Train(iters); err != nil {
			t.Fatal(err)
		}
		return bus.Stats().Bytes
	}
	b10 := run(10)
	b30 := run(30)
	if b30 != 3*b10 {
		t.Fatalf("E2E traffic should scale linearly: 10 iters %d bytes, 30 iters %d bytes", b10, b30)
	}
	// Four transfers per client per iteration.
	bus := NewLocalBus()
	p, err := NewE2EPipeline(bus, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Train(1); err != nil {
		t.Fatal(err)
	}
	if got := bus.Stats().Messages; got != int64(4*len(p.Clients)) {
		t.Fatalf("messages per iteration = %d, want %d", got, 4*len(p.Clients))
	}
}

// TestE2ETrainingLearns checks the joint objective actually decreases and
// the pipeline can synthesize valid tables.
func TestE2ETrainingLearns(t *testing.T) {
	tb := loanTable(t, 300)
	cfg := smallConfig(2)
	cfg.Batch = 64
	bus := NewLocalBus()
	p, err := NewE2EPipeline(bus, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	early, err := p.Train(10)
	if err != nil {
		t.Fatal(err)
	}
	late, err := p.Train(400)
	if err != nil {
		t.Fatal(err)
	}
	if late >= early {
		t.Fatalf("E2E loss did not decrease: %v -> %v", early, late)
	}
	out, err := p.Synthesize(30, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 30 {
		t.Fatal("synthesis failed")
	}
}

// TestLatentIrreversibility instantiates Theorem 1's argument: two distinct
// decoders agree on observed latents' provenance but reconstruct different
// data, so latents alone cannot identify the inputs. The coordinator's view
// (latents only) is also far from the real standardised features.
func TestLatentIrreversibility(t *testing.T) {
	tb := loanTable(t, 300)
	// Two clients with identical data but different private decoders
	// (different seeds): both produce valid latent spaces.
	c1 := NewClient("c0", tb, autoencoder.Config{Hidden: 64, Embed: 16, LR: 2e-3}, 1)
	c2 := NewClient("c0", tb, autoencoder.Config{Hidden: 64, Embed: 16, LR: 2e-3}, 2)
	c1.TrainLocal(200, 64)
	c2.TrainLocal(200, 64)

	z := c1.EncodeLocal()
	// Decoding with the wrong private decoder yields garbage relative to
	// decoding with the right one: ambiguity without the function.
	right, err := c1.DecodeLatents(z, false)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := c2.DecodeLatents(z, false)
	if err != nil {
		t.Fatal(err)
	}
	nCat := len(tb.Schema.CategoricalIndexes())
	var errRight, errWrong float64
	for j := nCat; j < tb.Schema.NumColumns(); j++ {
		orig := tb.NumColumn(j)
		r := right.NumColumn(j)
		w := wrong.NumColumn(j)
		for i := range orig {
			errRight += math.Abs(orig[i] - r[i])
			errWrong += math.Abs(orig[i] - w[i])
		}
	}
	if errWrong < 2*errRight {
		t.Fatalf("wrong decoder should reconstruct far worse: right %v, wrong %v", errRight, errWrong)
	}
}

func TestTCPHubRoundTrip(t *testing.T) {
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

	m := tensor.New(3, 4).Fill(2.5)
	if err := peer.Send(&Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: m}); err != nil {
		t.Fatal(err)
	}
	e, err := hub.Recv("coord")
	if err != nil {
		t.Fatal(err)
	}
	if e.From != "c0" || e.Payload.At(2, 3) != 2.5 {
		t.Fatal("hub did not receive the payload")
	}
	// Hub -> peer direction.
	if err := hub.Send(&Envelope{From: "coord", To: "c0", Kind: KindSynthLatent, Payload: m}); err != nil {
		t.Fatal(err)
	}
	e2, err := peer.Recv("c0")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Kind != KindSynthLatent {
		t.Fatal("peer did not receive")
	}
	// Real bytes were counted on the wire.
	if peer.Stats().Bytes <= 0 || hub.Stats().Bytes <= 0 {
		t.Fatal("wire bytes not counted")
	}
}

// TestStackedOverTCP runs the full stacked pipeline over a real loopback
// TCP transport, proving the protocol is wire-real.
func TestStackedOverTCP(t *testing.T) {
	tb := loanTable(t, 150)
	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()

	cfg := smallConfig(2)
	cfg.AEIters, cfg.DiffIters = 30, 30

	// The pipeline's actors share one Bus interface; build a composite bus
	// where client sends go through peers and coordinator receives at the
	// hub.
	peers := make([]*TCPPeer, 2)
	for i := range peers {
		p, err := DialHub([]string{"c0", "c1"}[i], hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[i] = p
	}
	bus := &routedBus{hub: hub, peers: map[string]*TCPPeer{"c0": peers[0], "c1": peers[1]}}
	p, err := NewPipeline(bus, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	out, err := p.SynthesizeShared(0, 20, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 20 {
		t.Fatal("TCP synthesis failed")
	}
	if hub.Stats().Bytes == 0 {
		t.Fatal("no bytes crossed the wire")
	}
}

// TestTCPDeadPeerFailsTyped: the TCP transport says itself that a peer is
// dead. A client whose socket is closed before the latent upload ends
// stacked training over the routed hub with an ErrPeerDead-class error,
// promptly, with the resilient layer and without it; a hub's send to a peer
// whose stream has ended fails the same way; and once the transports close
// no goroutine is left behind.
func TestTCPDeadPeerFailsTyped(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, resilient := range []bool{true, false} {
		hub, err := NewTCPHub("coord", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers := make(map[string]*TCPPeer, 2)
		for _, name := range []string{"c0", "c1"} {
			p, err := DialHub(name, hub.Addr())
			if err != nil {
				t.Fatal(err)
			}
			peers[name] = p
		}
		var bus Bus = &routedBus{hub: hub, peers: peers}
		if resilient {
			bus = NewResilientBus(bus, DefaultResilientConfig())
		}
		pcfg := smallConfig(2)
		pcfg.AEIters, pcfg.DiffIters = 10, 10
		pipe, err := NewPipeline(bus, loanTable(t, 120), pcfg)
		if err != nil {
			t.Fatal(err)
		}

		// The autoencoder phase is silo-local and completes; c1's latent
		// upload then meets the closed socket.
		if err := peers["c1"].Close(); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			_, _, err := pipe.TrainStacked()
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrPeerDead) {
				t.Fatalf("TrainStacked (resilient %v) with c1's socket closed: %v, want ErrPeerDead", resilient, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("TrainStacked (resilient %v) with c1's socket closed did not return within 10 s", resilient)
		}

		peers["c0"].Close()
		if err := hub.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// The hub learns of c0's closed socket from its stream's end, and a send
	// to c0 after that names c0 dead at once: the hub remembers the death
	// instead of waiting for a hello that cannot come.
	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p, err := DialHub("c0", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	var pd *PeerDeadError
	if _, err := hub.Recv("coord"); !errors.As(err, &pd) || pd.Peer != "c0" {
		t.Fatalf("hub.Recv after c0 closed: %v, want c0 dead", err)
	}
	sent := time.Now()
	if err := hub.Send(&Envelope{From: "coord", To: "c0", Kind: KindSynthLatent}); !errors.As(err, &pd) || pd.Peer != "c0" {
		t.Fatalf("hub.Send to the closed c0: %v, want c0 dead", err)
	}
	if took := time.Since(sent); took > 100*time.Millisecond {
		t.Fatalf("hub.Send to the closed c0 took %v, want under 100 ms", took)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > start {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the failed runs, %d before:\n%s", n, start, buf[:runtime.Stack(buf, true)])
	}
}

// routedBus lets in-process actors talk over real sockets, the way separate
// processes would: each party's sends and receives are routed through its
// own TCP endpoint, clients on their dialed peers, the coordinator on the
// hub.
type routedBus struct {
	hub   *TCPHub
	peers map[string]*TCPPeer
}

func (r *routedBus) Send(e *Envelope) error {
	if p, ok := r.peers[e.From]; ok {
		return p.Send(e)
	}
	return r.hub.Send(e)
}

func (r *routedBus) Recv(to string) (*Envelope, error) {
	if p, ok := r.peers[to]; ok {
		return p.Recv(to)
	}
	return r.hub.Recv(to)
}

func (r *routedBus) Stats() Stats { return r.hub.Stats() }
