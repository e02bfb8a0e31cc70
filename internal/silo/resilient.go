package silo

import (
	"fmt"
	"math"
	"sync"

	"silofuse/internal/obs"
)

// ResilientConfig is empty: the layer has nothing left to tune. It stays,
// with DefaultResilientConfig, only because the benchmark's ResilientBus
// probe builds one; both go when that probe does.
type ResilientConfig struct{}

// DefaultResilientConfig returns the empty ResilientConfig. It stays only
// for the benchmark probe, like the type.
func DefaultResilientConfig() ResilientConfig { return ResilientConfig{} }

// ResilientBus wraps a Bus with checked delivery: every application send is
// stamped with a per-link sequence number and an FNV-1a payload checksum and
// handed to the wrapped transport once, and the receive side accepts only
// the link's next sequence number with a checksum that verifies. A failed
// send is passed through: no transport has a send that fails and then
// succeeds on a retry, and a dead peer already comes back as ErrPeerDead.
// A bad checksum, a repeated or skipped sequence number and an unstamped
// envelope each surface as ErrCorruptPayload.
//
// The layer books nothing of its own: Stats is the wrapped transport's,
// which charges each message's frame with Seq and Sum in it, 16 bytes more
// than on a bare bus.
type ResilientBus struct {
	inner Bus
	rec   *obs.Recorder

	mu      sync.Mutex        // guards every field below
	nextSeq map[string]uint64 // link -> last assigned seq
	expect  map[string]uint64 // link -> last accepted seq; the next is one more
}

// NewResilientBus wraps inner. The config is empty and kept only for the
// benchmark probe's call.
func NewResilientBus(inner Bus, _ ResilientConfig) *ResilientBus {
	return &ResilientBus{
		inner:   inner,
		nextSeq: make(map[string]uint64),
		expect:  make(map[string]uint64),
	}
}

// SetRecorder implements RecorderSetter: corrupt-payload notes land on rec,
// and the recorder is forwarded to the wrapped transport for its
// per-message telemetry.
func (r *ResilientBus) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	if rs, ok := r.inner.(RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// checksumEnvelope hashes the routing fields, sequence number and payload
// bits with 64-bit FNV-1a. Flow is excluded: it is trace context, stamped
// by the transport after the checksum. A zero result is mapped to 1 so 0
// keeps meaning "no checksum".
func checksumEnvelope(e *Envelope) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range []string{e.From, e.To, string(e.Kind)} {
		h = (h ^ uint64(len(s))) * prime
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
	}
	h = (h ^ e.Seq) * prime
	h = (h ^ uint64(len(e.Blob))) * prime
	for _, b := range e.Blob {
		h = (h ^ uint64(b)) * prime
	}
	// Codec-framed envelopes fold the codec id and blob dimensions in, so a
	// corrupted shape fails verification exactly like a corrupted value.
	// Unframed envelopes skip the folds, keeping their checksums identical
	// to the pre-codec wire format.
	if e.Codec != 0 {
		h = (h ^ uint64(e.Codec)) * prime
		h = (h ^ uint64(e.Rows)) * prime
		h = (h ^ uint64(e.Cols)) * prime
	}
	if e.Payload != nil {
		h = (h ^ uint64(e.Payload.Rows)) * prime
		h = (h ^ uint64(e.Payload.Cols)) * prime
		for _, v := range e.Payload.Data {
			h = (h ^ math.Float64bits(v)) * prime
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// Send implements Bus: it stamps Seq and Sum and sends once.
func (r *ResilientBus) Send(e *Envelope) error {
	link := e.From + "->" + e.To
	r.mu.Lock()
	seq := r.nextSeq[link] + 1
	r.nextSeq[link] = seq
	r.mu.Unlock()
	e.Seq = seq
	e.Sum = checksumEnvelope(e)
	return r.inner.Send(e)
}

// Recv implements Bus: it returns the link's next envelope when its Seq is
// the one after the last accepted and its checksum verifies, and an error
// wrapping ErrCorruptPayload otherwise. The wrapped transport's errors, a
// dead peer's among them, pass through.
func (r *ResilientBus) Recv(to string) (*Envelope, error) {
	e, err := r.inner.Recv(to)
	if err != nil {
		return nil, err
	}
	link := e.From + "->" + e.To
	sumOK := e.Sum == checksumEnvelope(e)
	r.mu.Lock()
	want := r.expect[link] + 1
	ok := sumOK && e.Seq == want
	if ok {
		r.expect[link] = want
	}
	r.mu.Unlock()
	if ok {
		return e, nil
	}
	if r.rec != nil {
		r.rec.CorruptPayload(string(e.Kind))
	}
	return nil, fmt.Errorf("silo: %s %s seq %d, want seq %d with a valid checksum: %w", link, e.Kind, e.Seq, want, ErrCorruptPayload)
}

// Stats implements Bus by delegating to the wrapped transport.
func (r *ResilientBus) Stats() Stats { return r.inner.Stats() }
