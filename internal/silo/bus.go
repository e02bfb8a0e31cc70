// Package silo implements the cross-silo fabric of the paper: clients that
// own vertical feature partitions and private autoencoders, a coordinator
// that owns the diffusion backbone, message transports with exact byte
// accounting, the stacked training protocol (Algorithm 1), distributed
// synthesis (Algorithm 2), and the end-to-end split-learning baseline
// (E2EDistr) whose communication grows with the iteration count.
package silo

import (
	"fmt"
	"sync"

	"silofuse/internal/obs"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tensor"
)

// Kind tags protocol messages.
type Kind string

// Protocol message kinds.
const (
	KindLatents     Kind = "latents"      // client -> coordinator, encoded latents
	KindSynthReq    Kind = "synth-req"    // client -> coordinator, synthesis request
	KindSynthLatent Kind = "synth-latent" // coordinator -> client, synthetic latent partition
	KindActivation  Kind = "activation"   // client -> coordinator, E2E forward activations
	KindDenoised    Kind = "denoised"     // coordinator -> client, E2E denoised latents
	KindGradUp      Kind = "grad-up"      // client -> coordinator, E2E decoder-loss gradients
	KindGradDown    Kind = "grad-down"    // coordinator -> client, E2E encoder gradients
)

// Control and accounting kinds of the fault-tolerance layer. KindRetransmit
// never appears on an envelope: it is the Stats.ByKind bucket that collects
// the bytes of every re-sent attempt, so ByKind[app kind] stays pure goodput
// (first transmissions only) and Table VIII numbers survive a lossy network.
const (
	KindRetransmit Kind = "retransmit" // accounting bucket for re-sent bytes
	KindHeartbeat  Kind = "heartbeat"  // peer -> hub liveness beacon
	KindPeerDown   Kind = "peer-down"  // transport-injected death notice; From = dead peer
)

// KindTelemetry carries telemetry federation updates (party -> coordinator,
// JSON-encoded obs.TelemetryUpdate in Envelope.Blob). It rides the same
// sequenced, checksummed delivery path as application traffic, but its bytes
// land in their own Stats.ByKind bucket so the paper's communication tables
// (goodput per application kind) never include observability overhead.
const KindTelemetry Kind = "telemetry"

// Envelope is one protocol message. Payload may be nil for control
// messages.
//
// Flow is the distributed trace context: a run-unique id stamped by the
// sending transport when a recorder is attached (obs.Recorder.NextFlow folds
// the sender's trace pid into the high bits). It travels in the wire framing,
// and both endpoints record matching flow events, so traces from separate
// processes merge into one timeline with send→recv arrows between lanes.
// Zero means "no trace context".
// Seq, Sum and Rexmit belong to the resilient delivery layer and are zero
// on a bare bus (gob omits zero fields, so unwrapped runs pay no wire
// bytes for them): Seq numbers each From->To link's messages from 1 for
// receiver-side dedup and reordering, Sum is an FNV-1a checksum over the
// routing fields and payload bits, and Rexmit marks a retry attempt so
// transports account its bytes under KindRetransmit instead of the
// message's own kind.
// Blob carries opaque non-tensor payloads: telemetry federation updates
// (Codec zero) and codec-framed tensor payloads (Codec non-zero). Like the
// resilient fields it is zero on plain application traffic, so gob pays no
// wire bytes for it when unused; its length is charged to WireSize so blob
// traffic is accounted exactly.
// Codec, Rows and Cols belong to the wire-codec layer (see CodecBus): when
// Codec is non-zero, Blob holds the tensor payload encoded by
// internal/silo/codec and Rows/Cols are its dimensions (the dims ride the
// envelope, never the blob, so the f64 blob is exactly 8 bytes per value
// and default-mode byte accounting matches the historical payload model).
// All three are zero on unframed envelopes, costing no wire bytes.
type Envelope struct {
	From, To string
	Kind     Kind
	Payload  *tensor.Matrix
	Blob     []byte
	Codec    codec.ID
	Rows     int
	Cols     int
	Flow     uint64
	Seq      uint64
	Sum      uint64
	Rexmit   bool
}

// statKind returns the Stats.ByKind bucket for this envelope: retransmitted
// attempts land under KindRetransmit so per-kind counters stay goodput.
func (e *Envelope) statKind() Kind {
	if e.Rexmit {
		return KindRetransmit
	}
	return e.Kind
}

// WireSize returns the message's size in bytes under the deterministic cost
// model: a fixed header plus 8 bytes per float64 payload element plus the
// blob length. Experiments use this exact arithmetic so Figure 10 is
// reproducible bit-for-bit.
//
// Codec-framed envelopes (Codec != 0) carry their tensor as Blob, whose
// length is exactly codec.ID.EncodedSize(Rows, Cols), so the model is
// closed-form per codec for an n-value, c-column payload:
//
//	f64: 64 + 8n   (identical to the native payload model — default runs
//	               keep bit-identical per-kind byte accounting)
//	f32: 64 + 4n
//	q8:  64 + 16c + n
//
// TestWireSizeCodecModel pins this arithmetic against the codec package.
//
// The TCP transport's gob framing does NOT match the model exactly; the
// mismatch depends on the payload representation, so the tolerance is
// per stream kind (enforced by TestWireSizeTolerance):
//
//   - Native float64 payloads: gob varint-encodes floats (dense random
//     float64 payloads measure ~9 bytes per element, ~12% over the 8-byte
//     model) and emits a one-time ~120-byte type descriptor per stream.
//     Measured <= WireSizeFactor*modelled + WireSizeSlack.
//   - Codec-framed blobs: gob moves []byte verbatim (1 byte/byte plus a
//     ~10-byte frame), so measured bytes sit slightly BELOW the modelled
//     64-byte header on small messages and within ~0.4% of the model on
//     dense ones. Measured <= CodecWireSizeFactor*modelled +
//     CodecWireSizeSlack.
func (e *Envelope) WireSize() int64 {
	const header = 64 // from/to/kind strings + matrix dims + framing
	size := int64(header) + int64(len(e.Blob))
	if e.Payload != nil {
		size += int64(8 * len(e.Payload.Data))
	}
	return size
}

// Tolerance of measured gob bytes versus the WireSize model, per stream:
// measured <= factor*modelled + slack. The native-payload constants date
// from the gob float64 framing measurements (PR 1); the codec constants
// were re-derived from measured streams of f64/f32/q8-framed envelopes
// (raw []byte framing has no per-value varint waste, so the factor is
// within rounding of 1 and the slack covers the per-stream gob type
// descriptor).
const (
	WireSizeFactor = 1.13
	WireSizeSlack  = 256

	CodecWireSizeFactor = 1.01
	CodecWireSizeSlack  = 256
)

// Stats aggregates transport traffic.
type Stats struct {
	Messages   int64
	Bytes      int64
	BytesByDir map[string]int64 // "from->to" aggregate
	ByKind     map[Kind]int64   // bytes per message kind
}

// RecorderSetter is implemented by transports that can stream per-message
// telemetry (counters, byte totals, send-latency histograms) to an
// obs.Recorder.
type RecorderSetter interface {
	// SetRecorder attaches rec; a nil rec turns telemetry off. Call before
	// traffic starts — transports read the field without synchronisation.
	SetRecorder(rec *obs.Recorder)
}

// Bus moves envelopes between named parties and accounts for every byte.
type Bus interface {
	// Send delivers an envelope to the recipient's inbox.
	Send(e *Envelope) error
	// Recv blocks until a message for the recipient arrives.
	Recv(to string) (*Envelope, error)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// TryReceiver is implemented by transports whose inboxes can be polled
// without blocking. It powers the chaos layer's receive-side faults and the
// resilient layer's inter-attempt drain.
type TryReceiver interface {
	// TryRecv pops a pending message for the recipient, or returns false
	// immediately when the inbox is empty (or unreachable).
	TryRecv(to string) (*Envelope, bool)
}

// Resetter is implemented by transports that can discard in-flight state
// between recovery attempts: undelivered messages for the given parties and
// any per-link sequencing.
type Resetter interface {
	Reset(parties []string)
}

// LocalBus is an in-process Bus using buffered channels. It is
// deterministic for single-producer/single-consumer pairs and counts wire
// sizes exactly as the TCP transport would.
//
// Close and Send coordinate through closeMu: Send holds the read side for
// the duration of the inbox send, Close takes the write side before closing
// any channel, so a send can never race a close (the classic
// close-then-send panic). rec is deliberately unguarded — SetRecorder's
// contract is "call before traffic starts".
type LocalBus struct {
	mu      sync.Mutex
	boxes   map[string]chan *Envelope //silofuse:guardedby mu
	stats   Stats                     //silofuse:guardedby mu
	closeMu sync.RWMutex
	closed  bool //silofuse:guardedby closeMu
	rec     *obs.Recorder
}

// NewLocalBus creates a bus with the given inbox capacity per party.
func NewLocalBus() *LocalBus {
	return &LocalBus{
		boxes: make(map[string]chan *Envelope),
		stats: Stats{BytesByDir: make(map[string]int64), ByKind: make(map[Kind]int64)},
	}
}

// SetRecorder implements RecorderSetter.
func (b *LocalBus) SetRecorder(rec *obs.Recorder) { b.rec = rec }

func (b *LocalBus) box(name string) chan *Envelope {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ch, ok := b.boxes[name]; ok {
		return ch
	}
	ch := make(chan *Envelope, 1024)
	b.boxes[name] = ch
	return ch
}

// Send implements Bus.
func (b *LocalBus) Send(e *Envelope) error {
	if e.To == "" {
		return fmt.Errorf("silo: envelope has no recipient")
	}
	t0 := b.rec.Now()
	if b.rec != nil {
		if e.Flow == 0 {
			e.Flow = b.rec.NextFlow()
		}
		b.rec.Trace.FlowSend(string(e.Kind), e.Flow)
	}
	size := e.WireSize()
	kind := e.statKind()
	b.closeMu.RLock()
	if b.closed {
		b.closeMu.RUnlock()
		return ErrBusClosed
	}
	b.mu.Lock()
	b.stats.Messages++
	b.stats.Bytes += size
	b.stats.BytesByDir[e.From+"->"+e.To] += size
	b.stats.ByKind[kind] += size
	b.mu.Unlock()
	b.box(e.To) <- e
	b.closeMu.RUnlock()
	if b.rec != nil {
		b.rec.Message(string(kind), size, b.rec.Since(t0))
	}
	return nil
}

// Close marks the bus closed and closes every inbox channel, so blocked
// Recv calls return an error and pollers observe termination. Subsequent
// Sends fail with ErrBusClosed. Close waits for in-flight Sends to finish
// delivering (they hold closeMu's read side), so it must not be called from
// a goroutine a pending Send is waiting on: with an inbox full and its
// reader calling Close instead of Recv, both sides would block forever.
// Close is idempotent.
func (b *LocalBus) Close() error {
	b.closeMu.Lock()
	defer b.closeMu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ch := range b.boxes {
		close(ch)
	}
	return nil
}

// Recv implements Bus.
func (b *LocalBus) Recv(to string) (*Envelope, error) {
	e, ok := <-b.box(to)
	if !ok {
		return nil, fmt.Errorf("silo: inbox %q closed", to)
	}
	if b.rec != nil {
		b.rec.Trace.FlowRecv(string(e.Kind), e.Flow)
	}
	return e, nil
}

// TryRecv implements TryReceiver: it pops a pending message for the
// recipient without blocking. The chaos layer uses it to look ahead in an
// inbox (reorder/delay faults) and the resilient layer uses it to drain
// stale in-flight messages between recovery attempts.
func (b *LocalBus) TryRecv(to string) (*Envelope, bool) {
	select {
	case e, ok := <-b.box(to):
		if !ok {
			return nil, false
		}
		if b.rec != nil {
			b.rec.Trace.FlowRecv(string(e.Kind), e.Flow)
		}
		return e, true
	default:
		return nil, false
	}
}

// Stats implements Bus.
func (b *LocalBus) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return copyStats(b.stats)
}

// copyStats deep-copies a Stats value; callers must hold the owning lock.
func copyStats(s Stats) Stats {
	out := Stats{
		Messages:   s.Messages,
		Bytes:      s.Bytes,
		BytesByDir: make(map[string]int64, len(s.BytesByDir)),
		ByKind:     make(map[Kind]int64, len(s.ByKind)),
	}
	for k, v := range s.BytesByDir {
		out.BytesByDir[k] = v
	}
	for k, v := range s.ByKind {
		out.ByKind[k] = v
	}
	return out
}
