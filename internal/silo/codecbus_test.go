//silofuse:bitwise-ok codec tests pin bit-identical default paths and exact byte models
package silo

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"silofuse/internal/obs"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tensor"
)

// TestWireSizeCodecModel pins Envelope.WireSize per codec: the frame is its
// header plus exactly the blob, the uncoded blob of a tensor with no repeated
// row is EncodedSize bytes — under f64 exactly what the same tensor costs as
// a native Payload, the invariant the default run's byte accounting rests on
// — and the coded form is never longer.
func TestWireSizeCodecModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range [][2]int{{1, 1}, {7, 3}, {50, 20}, {128, 16}} {
		rows, cols := shape[0], shape[1]
		m := tensor.New(rows, cols).Randn(rng, 1)
		native := &Envelope{From: "a", To: "b", Kind: KindLatents, Payload: m}
		header := native.WireSize() - int64(codec.F64.EncodedSize(rows, cols))
		for _, id := range []codec.ID{codec.F64, codec.F32, codec.Q8} {
			uncoded, _, err := codec.EncodeUncoded(id, m)
			if err != nil {
				t.Fatal(err)
			}
			blob, _, err := codec.Encode(id, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(uncoded) != id.EncodedSize(rows, cols) || len(blob) > len(uncoded) {
				t.Fatalf("%s %dx%d: uncoded %d bytes, coded %d, EncodedSize %d", id, rows, cols, len(uncoded), len(blob), id.EncodedSize(rows, cols))
			}
			for _, b := range [][]byte{uncoded, blob} {
				framed := &Envelope{From: "a", To: "b", Kind: KindLatents, Blob: b, Codec: id, Rows: rows, Cols: cols}
				if got, want := framed.WireSize(), header+int64(len(b)); got != want {
					t.Fatalf("%s %dx%d: WireSize = %d, want header %d + blob %d = %d", id, rows, cols, got, header, len(b), want)
				}
				if id == codec.F64 && len(b) == len(uncoded) && framed.WireSize() != native.WireSize() {
					t.Fatalf("%dx%d: f64-framed WireSize %d != native payload WireSize %d", rows, cols, framed.WireSize(), native.WireSize())
				}
			}
		}
	}
}

// TestCodecBusRoundTrip sends dense payloads through a CodecBus over a
// LocalBus under each codec and checks the application sees a native tensor
// again: bit-exact under f64, within the documented error bounds under f32
// and q8, with the caller's envelope left unmutated.
func TestCodecBusRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.New(40, 8).Randn(rng, 2)
	for _, id := range []codec.ID{codec.F64, codec.F32, codec.Q8} {
		bus := NewCodecBus(NewLocalBus(), id)
		sent := &Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: m}
		if err := bus.Send(sent); err != nil {
			t.Fatal(err)
		}
		if sent.Payload != m || sent.Blob != nil || sent.Codec != 0 {
			t.Fatalf("%s: Send mutated the caller's envelope", id)
		}
		got, err := bus.Recv("coord")
		if err != nil {
			t.Fatal(err)
		}
		if got.Payload == nil || got.Blob != nil || got.Codec != 0 || got.Rows != 0 || got.Cols != 0 {
			t.Fatalf("%s: Recv returned a still-framed envelope: %+v", id, got)
		}
		if got.Payload.Rows != m.Rows || got.Payload.Cols != m.Cols {
			t.Fatalf("%s: shape %dx%d, want %dx%d", id, got.Payload.Rows, got.Payload.Cols, m.Rows, m.Cols)
		}
		var maxErr float64
		for i, v := range m.Data {
			if d := math.Abs(got.Payload.Data[i] - v); d > maxErr {
				maxErr = d
			}
		}
		switch id {
		case codec.F64:
			for i, v := range m.Data {
				if math.Float64bits(got.Payload.Data[i]) != math.Float64bits(v) {
					t.Fatalf("f64: element %d not bit-exact", i)
				}
			}
		case codec.F32:
			// Half-ULP relative rounding bound per element.
			for i, v := range m.Data {
				if d := math.Abs(got.Payload.Data[i] - v); d > math.Abs(v)*math.Exp2(-24)*1.000001 {
					t.Fatalf("f32: element %d error %v above rounding bound for %v", i, d, v)
				}
			}
		case codec.Q8:
			rep := bus.WireReport()[string(KindLatents)]
			if maxErr > rep.MaxErr {
				t.Fatalf("q8: observed error %v above reported bound %v", maxErr, rep.MaxErr)
			}
		}
	}
}

// TestCodecBusPassthrough pins what the codec layer must NOT touch: control
// kinds are delivered by identity, and no wire accounting is booked for
// them.
func TestCodecBusPassthrough(t *testing.T) {
	bus := NewCodecBus(NewLocalBus(), codec.F32)
	ctrl := &Envelope{From: "c0", To: "coord", Kind: KindSynthReq}
	if err := bus.Send(ctrl); err != nil {
		t.Fatal(err)
	}
	got, err := bus.Recv("coord")
	if err != nil {
		t.Fatal(err)
	}
	if got != ctrl {
		t.Fatalf("%s: passthrough envelope was copied or re-framed", ctrl.Kind)
	}
	if len(bus.WireReport()) != 0 {
		t.Fatalf("passthrough traffic booked wire accounting: %v", bus.WireReport())
	}
}

// TestCodecBusWireReport pins the per-kind accounting arithmetic: message
// counts, raw bytes equal to the native frames' WireSize, encoded bytes
// equal to the framed WireSize (same header, the codec's body),
// zero error under f64 and a positive bounded error under q8 — and that the
// Stats the inner bus books are the encoded (not raw) bytes, with no double
// count from the codec layer.
func TestCodecBusWireReport(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := tensor.New(10, 4).Randn(rng, 1)
	b := tensor.New(6, 4).Randn(rng, 1)
	for _, id := range []codec.ID{codec.F64, codec.Q8} {
		bus := NewCodecBus(NewLocalBus(), id)
		for _, m := range []*tensor.Matrix{a, b} {
			if err := bus.Send(&Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: m}); err != nil {
				t.Fatal(err)
			}
			if _, err := bus.Recv("coord"); err != nil {
				t.Fatal(err)
			}
		}
		rep := bus.WireReport()[string(KindLatents)]
		if rep.Codec != id.String() || rep.Messages != 2 {
			t.Fatalf("%s: report %+v", id, rep)
		}
		var wantRaw, wantEnc int64
		for _, m := range []*tensor.Matrix{a, b} {
			raw := (&Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: m}).WireSize()
			blob, _, err := codec.Encode(id, m)
			if err != nil {
				t.Fatal(err)
			}
			wantRaw += raw
			wantEnc += raw - int64(codec.F64.EncodedSize(m.Rows, m.Cols)) + int64(len(blob))
		}
		if rep.RawBytes != wantRaw {
			t.Fatalf("%s: raw bytes %d, want %d", id, rep.RawBytes, wantRaw)
		}
		if rep.Bytes != wantEnc {
			t.Fatalf("%s: encoded bytes %d, want %d", id, rep.Bytes, wantEnc)
		}
		if got := bus.Stats().ByKind[KindLatents]; got != wantEnc {
			t.Fatalf("%s: inner stats booked %d B, want encoded %d B", id, got, wantEnc)
		}
		switch id {
		case codec.F64:
			if rep.MaxErr != 0 || rep.MeanErr != 0 {
				t.Fatalf("f64: nonzero error %+v", rep)
			}
		case codec.Q8:
			if !(rep.MaxErr > 0) || !(rep.MeanErr > 0) || rep.MeanErr > rep.MaxErr {
				t.Fatalf("q8: implausible error stats %+v", rep)
			}
		}
	}
}

// TestCodecBusGaugesUnderConcurrentSenders: the wire_err_* gauges are the
// running aggregates, so however sends of one kind interleave, the last value
// each gauge holds is the one WireReport gives. Setting them after the lock
// was released let an older running value land last.
func TestCodecBusGaugesUnderConcurrentSenders(t *testing.T) {
	const senders, sends = 4, 3
	payloads := make([]*tensor.Matrix, senders*sends)
	rng := rand.New(rand.NewSource(5))
	for i := range payloads {
		payloads[i] = tensor.New(8, 5).Randn(rng, float64(1+i))
	}
	for rep := 0; rep < 200; rep++ {
		rec := obs.NewRecorder()
		bus := NewCodecBus(NewLocalBus(), codec.F32)
		bus.SetRecorder(rec)
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < sends; k++ {
					e := &Envelope{From: fmt.Sprintf("c%d", g), To: "coord", Kind: KindActivation, Payload: payloads[g*sends+k]}
					if err := bus.Send(e); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		want := bus.WireReport()[string(KindActivation)]
		suffix := "f32_" + string(KindActivation)
		if got := rec.Reg.Gauge("wire_err_max_" + suffix).Value(); got != want.MaxErr {
			t.Fatalf("rep %d: wire_err_max gauge %v, WireReport %v", rep, got, want.MaxErr)
		}
		if got := rec.Reg.Gauge("wire_err_mean_" + suffix).Value(); got != want.MeanErr {
			t.Fatalf("rep %d: wire_err_mean gauge %v, WireReport %v", rep, got, want.MeanErr)
		}
	}
}

// TestCodecBusDefaultBitIdentity is the headline guarantee of the wire-codec
// layer: a default (f64) CodecBus run is bit-identical to a bare LocalBus
// run — training losses, synthesised output and message counts match
// exactly. The bare bus charges every tensor as its dense native frame,
// which is what the codec layer reports as RawBytes per kind; the codec
// layer charges that less what its row dictionaries and coded forms saved.
// The latent upload saves; synthesis latents, which never take the coded
// form and never repeat a row, save nothing.
func TestCodecBusDefaultBitIdentity(t *testing.T) {
	bare := NewLocalBus()
	baseAE, baseDiff, baseOut := chaosStackedRun(t, bare)

	wire := NewCodecBus(NewLocalBus(), codec.F64)
	ae, diff, out := chaosStackedRun(t, wire)
	if math.Float64bits(ae) != math.Float64bits(baseAE) || math.Float64bits(diff) != math.Float64bits(baseDiff) {
		t.Fatalf("f64 codec losses (%v, %v) diverge from bare bus (%v, %v)", ae, diff, baseAE, baseDiff)
	}
	sameTable(t, "codec-f64/stacked", baseOut, out)

	bs, ws := bare.Stats(), wire.Stats()
	if ws.Messages != bs.Messages || len(ws.ByKind) != len(bs.ByKind) {
		t.Fatalf("f64 codec stats (%d msgs, %v) diverge from bare bus (%d msgs, %v)", ws.Messages, ws.ByKind, bs.Messages, bs.ByKind)
	}
	rep := wire.WireReport()
	var saved int64
	for kind, want := range bs.ByKind {
		r, got := rep[string(kind)], ws.ByKind[kind]
		if r.Messages > 0 && (r.RawBytes != want || r.Bytes != got || got > want) {
			t.Fatalf("f64 codec %s: sent %d B, reported %d of raw %d; bare bus %d B", kind, got, r.Bytes, r.RawBytes, want)
		}
		if r.Messages == 0 && got != want {
			t.Fatalf("f64 codec ByKind[%s] = %d, want %d", kind, got, want)
		}
		saved += want - got
	}
	if saved <= 0 || ws.Bytes != bs.Bytes-saved {
		t.Fatalf("f64 codec moved %d B against the bare bus's %d, %d saved by dictionaries and coding", ws.Bytes, bs.Bytes, saved)
	}
	if lat, syn := rep[string(KindLatents)], rep[string(KindSynthLatent)]; lat.Bytes >= lat.RawBytes || syn.Messages == 0 || syn.Bytes != syn.RawBytes {
		t.Fatalf("f64 codec: latents %+v should save, synth-latent %+v should cost its dense frames", lat, syn)
	}
	for _, kind := range WireReportKinds(rep) {
		if r := rep[kind]; r.MaxErr != 0 || r.MeanErr != 0 {
			t.Fatalf("f64 codec reported nonzero error for %s: %+v", kind, r)
		}
	}
}

// TestCodecBusCompression pins the headline byte savings on a real stacked
// run: relative to the f64 framing, f32 carries the latent stream in about
// half the bytes and q8 in about a quarter, with reconstruction error
// within each codec's documented bound.
func TestCodecBusCompression(t *testing.T) {
	byteses := map[codec.ID]int64{}
	reports := map[codec.ID]WireKindStats{}
	for _, id := range []codec.ID{codec.F64, codec.F32, codec.Q8} {
		wire := NewCodecBus(NewLocalBus(), id)
		chaosStackedRun(t, wire)
		byteses[id] = wire.Stats().ByKind[KindLatents]
		reports[id] = wire.WireReport()[string(KindLatents)]
	}
	f64b, f32b, q8b := byteses[codec.F64], byteses[codec.F32], byteses[codec.Q8]
	if f64b == 0 {
		t.Fatal("no latent traffic recorded")
	}
	if ratio := float64(f32b) / float64(f64b); ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("f32/f64 latent byte ratio %.3f outside [0.4, 0.6] (%d/%d)", ratio, f32b, f64b)
	}
	if ratio := float64(q8b) / float64(f64b); ratio < 0.1 || ratio > 0.35 {
		t.Fatalf("q8/f64 latent byte ratio %.3f outside [0.1, 0.35] (%d/%d)", ratio, q8b, f64b)
	}
	if r := reports[codec.F32]; !(r.MaxErr > 0) || r.MaxErr > 1e-4 {
		t.Fatalf("f32 latent max error %v outside (0, 1e-4]", r.MaxErr)
	}
	if r := reports[codec.Q8]; !(r.MaxErr > 0) || r.MaxErr > 0.5 {
		t.Fatalf("q8 latent max error %v outside (0, 0.5]", r.MaxErr)
	}
}

// codecChaos builds the full four-layer stack under test: application ->
// CodecBus (framing) -> ResilientBus (sequence and checksums) ->
// ChaosBus (fault injection) -> LocalBus.
func codecChaos(id codec.ID, seed int64, prof ChaosProfile) (*CodecBus, *ChaosBus) {
	rb, cb := resilientChaos(seed, prof)
	return NewCodecBus(rb, id), cb
}

// TestChaosCodecCorruptFailsTyped: a bit flipped inside the encoded blob
// must be caught by the resilient layer's checksum and surface as the typed
// ErrCorruptPayload under every codec — compressed frames get the same
// integrity guarantee as native payloads.
func TestChaosCodecCorruptFailsTyped(t *testing.T) {
	for _, id := range []codec.ID{codec.F64, codec.F32, codec.Q8} {
		wire, cb := codecChaos(id, 4, ChaosProfile{Name: "corrupt-all", CorruptPermille: 1000})
		tb := loanTable(t, 120)
		cfg := smallConfig(2)
		cfg.AEIters, cfg.DiffIters = 10, 10
		p, err := NewPipeline(wire, tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.TrainStacked(); !errors.Is(err, ErrCorruptPayload) {
			t.Fatalf("%s: stacked over corrupt-all: err = %v, want ErrCorruptPayload", id, err)
		}
		if cb.FaultStats().Corrupts == 0 {
			t.Fatalf("%s: corrupt-all profile flipped no bits", id)
		}
	}
}
