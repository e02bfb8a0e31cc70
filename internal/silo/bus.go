// Package silo implements the cross-silo fabric of the paper: clients that
// own vertical feature partitions and private autoencoders, a coordinator
// that owns the diffusion backbone, message transports that all charge the
// length of one wire frame (frame.go), the stacked training protocol
// (Algorithm 1), distributed synthesis (Algorithm 2), and the end-to-end
// split-learning baseline (E2EDistr) whose communication grows with the
// iteration count.
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

// KindRetransmit never appears on an envelope: it is the Stats.ByKind bucket
// that collects the bytes of every re-sent attempt, so ByKind[app kind] stays
// pure goodput (first transmissions only) and Table VIII numbers survive a
// lossy network.
const KindRetransmit Kind = "retransmit"

// Envelope is one protocol message. Payload may be nil for control
// messages.
//
// Flow is the distributed trace context: a run-unique id stamped by the
// sending transport when a recorder is attached (obs.Recorder.NextFlow folds
// the sender's trace pid into the high bits). It travels in the frame, and
// both endpoints record matching flow events, so traces from separate
// processes merge into one timeline with send→recv arrows between lanes.
// Zero means "no trace context"; the field is fixed-width on the wire, so a
// traced run moves exactly the bytes of an untraced one.
// Seq, Sum and Rexmit belong to the resilient delivery layer and are zero
// on a bare bus: Seq numbers each From->To link's messages from 1 so the
// receiver can check that each is the link's next, Sum is an FNV-1a
// checksum over the routing fields and payload bits (the pair costs 16
// frame bytes, only on messages that layer stamped), and Rexmit marks a
// retry attempt so transports account its bytes under KindRetransmit
// instead of the message's own kind.
// Codec, Rows, Cols and Blob belong to the wire-codec layer (see CodecBus):
// when Codec is non-zero, Blob holds the tensor payload encoded by
// internal/silo/codec and Rows/Cols are its dimensions (the dims ride the
// frame header, never the blob, so a dense f64 blob is exactly 8 bytes per
// value and a row dictionary fewer). All four are zero on an envelope that holds a native Payload or
// no tensor at all; an envelope holds its tensor once, never both ways.
//
// WireSize and the frame layout live in frame.go.
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
//
// Every transport delivers each From->To link's messages in the order they
// were sent and exactly once: a Send that returns nil has handed its
// envelope to the link, one that returns an error has not, and a link is one
// channel or one TCP stream. The protocols send each link's messages from
// one goroutine, so no message overtakes or repeats another; the resilient
// layer (resilient.go) checks that contract instead of repairing breaches
// of it.
type Bus interface {
	// Send delivers an envelope to the recipient's inbox.
	Send(e *Envelope) error
	// Recv blocks until a message for the recipient arrives.
	Recv(to string) (*Envelope, error)
	// Stats returns a snapshot of traffic counters.
	Stats() Stats
}

// LocalBus is an in-process Bus using buffered channels. It is
// deterministic for single-producer/single-consumer pairs and books each
// envelope's WireSize, the bytes the TCP transport writes for it.
//
// Close and Send coordinate through closeMu: Send holds the read side for
// the duration of the inbox send, Close takes the write side before closing
// any channel, so a send can never race a close (the classic
// close-then-send panic). rec is deliberately unguarded — SetRecorder's
// contract is "call before traffic starts".
type LocalBus struct {
	mu      sync.Mutex // guards boxes and stats
	boxes   map[string]chan *Envelope
	stats   Stats
	closeMu sync.RWMutex // guards closed
	closed  bool
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
// Recv calls return an error once the inbox is drained. Subsequent
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
