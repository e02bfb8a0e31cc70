package silo

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"silofuse/internal/obs"
)

// ResilientConfig tunes the reliable-delivery wrapper.
type ResilientConfig struct {
	// MaxAttempts bounds transmissions per message (first try + retries).
	MaxAttempts int
	// BackoffBase is the wait before the first retry; each further retry
	// doubles it, capped at BackoffCap. The schedule is a pure function of
	// the attempt number — no clock reads — so retry timing never perturbs
	// determinism.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Sleep performs the backoff wait; nil means time.Sleep. Tests inject a
	// no-op to run dense retry schedules instantly.
	Sleep func(time.Duration)
}

// DefaultResilientConfig returns the production retry policy: 4 attempts
// with 2ms→50ms exponential backoff. The recoverable chaos profiles keep
// their consecutive-drop bounds below this attempt budget.
func DefaultResilientConfig() ResilientConfig {
	return ResilientConfig{MaxAttempts: 4, BackoffBase: 2 * time.Millisecond, BackoffCap: 50 * time.Millisecond}
}

// ResilientBus wraps a Bus with bounded retries and checked delivery: every
// application send is stamped with a per-link sequence number and an FNV-1a
// payload checksum, and a failed send is retried up to MaxAttempts times
// under deterministic exponential backoff. A failed Send delivered nothing
// (the Bus contract), so a retry cannot repeat a message, and the receive
// side accepts only the link's next sequence number with a checksum that
// verifies. Anything else surfaces as a typed error: ErrPeerDead when the
// peer is gone or the retry budget runs out, ErrCorruptPayload for a bad
// checksum, a repeated or skipped sequence number, or an unstamped
// envelope.
//
// Stats reports the frame bytes of every transmission attempt (Seq and Sum
// included: 16 bytes a message), split so Table VIII numbers stay faithful
// under faults: ByKind[app kind] counts first transmissions only (goodput,
// invariant across chaos seeds) and ByKind[KindRetransmit] collects all
// re-sent bytes; Bytes is their sum. What actually reached the wrapped
// transport (less the attempts a chaos layer dropped, say) is on its own
// Stats.
type ResilientBus struct {
	inner Bus
	cfg   ResilientConfig
	rec   *obs.Recorder

	mu      sync.Mutex        // guards every field below
	nextSeq map[string]uint64 // link -> last assigned seq
	expect  map[string]uint64 // link -> last accepted seq; the next is one more
	stats   Stats
	retries int64
}

// NewResilientBus wraps inner with the given retry policy; zero cfg fields
// take the DefaultResilientConfig values.
func NewResilientBus(inner Bus, cfg ResilientConfig) *ResilientBus {
	def := DefaultResilientConfig()
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = def.MaxAttempts
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = def.BackoffBase
	}
	if cfg.BackoffCap <= 0 {
		cfg.BackoffCap = def.BackoffCap
	}
	return &ResilientBus{
		inner:   inner,
		cfg:     cfg,
		nextSeq: make(map[string]uint64),
		expect:  make(map[string]uint64),
		stats:   Stats{BytesByDir: make(map[string]int64), ByKind: make(map[Kind]int64)},
	}
}

// SetRecorder implements RecorderSetter: retry and corrupt-payload notes
// land on rec, and the recorder is forwarded to the wrapped transport for
// its per-message telemetry.
func (r *ResilientBus) SetRecorder(rec *obs.Recorder) {
	r.rec = rec
	if rs, ok := r.inner.(RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// checksumEnvelope hashes the routing fields, sequence number and payload
// bits with 64-bit FNV-1a. Flow and Rexmit are excluded: they legitimately
// differ between transmission attempts of the same message. A zero result
// is mapped to 1 so 0 keeps meaning "no checksum".
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

// backoff returns the deterministic wait before the given attempt (>= 2).
func (r *ResilientBus) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase << uint(attempt-2)
	if d > r.cfg.BackoffCap || d <= 0 {
		d = r.cfg.BackoffCap
	}
	return d
}

func (r *ResilientBus) sleep(d time.Duration) {
	if r.cfg.Sleep != nil {
		r.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

// account books one transmission attempt.
func (r *ResilientBus) account(e *Envelope, size int64) {
	r.mu.Lock()
	if e.Rexmit {
		r.retries++
		r.stats.ByKind[KindRetransmit] += size
	} else {
		r.stats.Messages++
		r.stats.ByKind[e.Kind] += size
	}
	r.stats.Bytes += size
	r.stats.BytesByDir[e.From+"->"+e.To] += size
	r.mu.Unlock()
}

// Send implements Bus with sequencing, checksumming and bounded retries.
func (r *ResilientBus) Send(e *Envelope) error {
	link := e.From + "->" + e.To
	r.mu.Lock()
	r.nextSeq[link]++
	e.Seq = r.nextSeq[link]
	r.mu.Unlock()
	e.Sum = checksumEnvelope(e)
	size := e.WireSize()
	var err error
	for attempt := 1; attempt <= r.cfg.MaxAttempts; attempt++ {
		send := e
		if attempt > 1 {
			d := r.backoff(attempt)
			if r.rec != nil {
				r.rec.Retry(string(e.Kind), d)
			}
			r.sleep(d)
			cp := *e
			cp.Rexmit = true
			cp.Flow = 0 // each attempt gets its own trace context
			send = &cp
		}
		r.account(send, size)
		err = r.inner.Send(send)
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrPeerDead) {
			return err
		}
	}
	return &PeerDeadError{Peer: e.To, Cause: fmt.Errorf("%d attempts exhausted: %w", r.cfg.MaxAttempts, err)}
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

// Stats implements Bus with the attempt-level accounting described on the
// type.
func (r *ResilientBus) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return copyStats(r.stats)
}

// Retries reports the number of retransmission attempts issued.
func (r *ResilientBus) Retries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.retries
}
