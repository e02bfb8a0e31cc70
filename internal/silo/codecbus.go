package silo

import (
	"fmt"
	"sort"
	"sync"

	"silofuse/internal/obs"
	"silofuse/internal/silo/codec"
)

// codecEligible reports whether a message kind carries a dense tensor
// payload the wire codec should frame. The control kind synth-req passes
// through untouched.
func codecEligible(k Kind) bool {
	switch k {
	case KindLatents, KindSynthLatent, KindActivation, KindDenoised, KindGradUp, KindGradDown:
		return true
	}
	return false
}

// WireKindStats is one message kind's bytes-vs-error record under a wire
// codec: how many tensor messages were framed, the bytes their frames would
// have been with a dense float64 body (8 per value), the bytes of the frames
// actually sent (dense, row dictionary or coded), and the maximum / value-weighted mean absolute
// reconstruction error the codec introduced. For the lossless f64 codec
// both errors are exactly 0.
type WireKindStats struct {
	Codec    string  `json:"codec"`
	Messages int64   `json:"messages"`
	RawBytes int64   `json:"raw_bytes"`
	Bytes    int64   `json:"bytes"`
	MaxErr   float64 `json:"max_err"`
	MeanErr  float64 `json:"mean_err"`
}

// wireAgg accumulates one kind's codec accounting.
type wireAgg struct {
	messages int64
	rawBytes int64
	encBytes int64
	maxErr   float64
	errSum   float64
	values   int64
}

// CodecBus is the outermost transport layer: it frames dense tensor
// payloads through the precision-tiered wire codec on Send and decodes them
// back to native tensors on Recv, so the application protocol is oblivious
// to the wire representation while every layer below it — checksums,
// chaos faults, byte accounting — operates on the encoded blob, exactly as
// a real network stack would.
//
// The default f64 codec is bit-lossless, so a default run's losses and
// outputs are bit-identical to a run without the wrapper. Its dense blob is
// the body a native Payload is framed with; a tensor that repeats rows goes
// as a row dictionary, and one whose byte planes Huffman-code shorter in the
// coded form, so its frame costs less than the native one and the
// difference is the report's RawBytes − Bytes (pinned by
// TestCodecBusDefaultBitIdentity). Synthesis latents never take the coded
// form: a synthesis request's bytes depend on its size, not on the noise
// the sampler drew.
//
// Every framed send is accounted per kind: raw vs encoded bytes and the
// reconstruction error bound, exposed through WireReport and — when a
// recorder is attached — the wire_* metric family that run manifests pick
// up.
type CodecBus struct {
	inner Bus
	id    codec.ID
	rec   *obs.Recorder

	mu   sync.Mutex
	wire map[Kind]*wireAgg
}

// NewCodecBus wraps inner with the given wire codec (f64, f32 or q8). It is
// the identity for ineligible kinds.
func NewCodecBus(inner Bus, id codec.ID) *CodecBus {
	return &CodecBus{inner: inner, id: id, wire: make(map[Kind]*wireAgg)}
}

// SetRecorder implements RecorderSetter: wire codec metrics land on rec,
// and the recorder is forwarded to the wrapped transport.
func (b *CodecBus) SetRecorder(rec *obs.Recorder) {
	b.rec = rec
	if rs, ok := b.inner.(RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// Send implements Bus: eligible tensor payloads are encoded into the
// envelope's Blob (dims ride the envelope) before the inner layers see it.
// The caller's envelope is never mutated — the frame is a shallow copy — so
// senders retain their payload for retransmission or reuse.
func (b *CodecBus) Send(e *Envelope) error {
	if !codecEligible(e.Kind) || e.Payload == nil || e.Codec != 0 {
		return b.inner.Send(e)
	}
	encode := codec.Encode
	if e.Kind == KindSynthLatent {
		// Sampled latents are fresh noise every request: coded, a request's
		// bytes would vary by a few from one draw to the next.
		encode = codec.EncodeUncoded
	}
	blob, st, err := encode(b.id, e.Payload)
	if err != nil {
		return fmt.Errorf("silo: wire codec %s encode %s: %w", b.id, e.Kind, err)
	}
	enc := *e
	enc.Blob = blob
	enc.Codec = b.id
	enc.Rows, enc.Cols = e.Payload.Rows, e.Payload.Cols
	enc.Payload = nil
	b.record(e.Kind, e.WireSize(), enc.WireSize(), int64(len(e.Payload.Data)), st)
	return b.inner.Send(&enc)
}

// record folds one framed send into the per-kind accounting and mirrors the
// running aggregates to the recorder's wire_* metrics. The gauges are set
// under the lock, from the aggregate: two sends of one kind cannot then
// leave the older running value as the last one written.
func (b *CodecBus) record(kind Kind, rawWire, encWire, values int64, st codec.ErrStats) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.wire[kind]
	if a == nil {
		a = &wireAgg{}
		b.wire[kind] = a
	}
	a.messages++
	a.rawBytes += rawWire
	a.encBytes += encWire
	a.values += values
	a.errSum += st.Mean * float64(values)
	if st.Max > a.maxErr {
		a.maxErr = st.Max
	}
	b.rec.WireCodec(b.id.String(), string(kind), rawWire, encWire, a.maxErr, a.meanErr())
}

// meanErr is the value-weighted mean absolute reconstruction error so far.
func (a *wireAgg) meanErr() float64 {
	if a.values == 0 {
		return 0
	}
	return a.errSum / float64(a.values)
}

// decode reconstructs a codec-framed envelope's tensor payload; unframed
// envelopes pass through untouched. A blob that no longer matches its
// declared shape surfaces as ErrCorruptPayload — with the resilient layer
// below, its checksum catches corruption first, so this is a last line of
// defence on bare stacks.
func (b *CodecBus) decode(e *Envelope) (*Envelope, error) {
	if e.Codec == codec.None {
		return e, nil
	}
	m, err := codec.Decode(e.Codec, e.Blob, e.Rows, e.Cols)
	if err != nil {
		return nil, fmt.Errorf("silo: %s->%s %s seq %d wire codec decode: %w (%v)", e.From, e.To, e.Kind, e.Seq, ErrCorruptPayload, err)
	}
	dec := *e
	dec.Payload = m
	dec.Blob = nil
	dec.Codec = codec.None
	dec.Rows, dec.Cols = 0, 0
	return &dec, nil
}

// Recv implements Bus, decoding codec-framed envelopes back to native
// tensors before the application sees them.
func (b *CodecBus) Recv(to string) (*Envelope, error) {
	e, err := b.inner.Recv(to)
	if err != nil {
		return nil, err
	}
	return b.decode(e)
}

// Stats implements Bus by delegating to the wrapped transport: the inner
// layers already account the encoded envelope's WireSize, so the codec's
// byte savings land in the existing ByKind buckets with no double count.
func (b *CodecBus) Stats() Stats { return b.inner.Stats() }

// WireReport snapshots the per-kind bytes-vs-error accounting of every
// framed kind, keyed by kind name.
func (b *CodecBus) WireReport() map[string]WireKindStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]WireKindStats, len(b.wire))
	for kind, a := range b.wire {
		out[string(kind)] = WireKindStats{
			Codec:    b.id.String(),
			Messages: a.messages,
			RawBytes: a.rawBytes,
			Bytes:    a.encBytes,
			MaxErr:   a.maxErr,
			MeanErr:  a.meanErr(),
		}
	}
	return out
}

// WireReportKinds lists the framed kinds in sorted order — the
// deterministic iteration companion of WireReport.
func WireReportKinds(rep map[string]WireKindStats) []string {
	kinds := make([]string, 0, len(rep))
	for k := range rep {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}
