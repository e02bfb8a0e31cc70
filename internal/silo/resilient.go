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

// ResilientBus wraps a Bus with reliable, idempotent, integrity-checked
// delivery: every application send is stamped with a per-link sequence
// number and an FNV-1a payload checksum, failed sends are retried up to
// MaxAttempts times under deterministic exponential backoff, and the
// receive side deduplicates and reorders by sequence number so the
// application observes exactly the fault-free message stream. Failures
// that survive the retry budget surface as typed errors: ErrPeerDead when
// a party is unreachable, ErrCorruptPayload when a checksum fails.
//
// Stats reports the frame bytes of every transmission attempt (Seq and Sum
// included: 16 bytes a message), split so Table VIII numbers stay faithful
// under faults: ByKind[app kind] counts first transmissions only (goodput,
// invariant across chaos seeds) and ByKind[KindRetransmit] collects all
// re-sent bytes; Bytes is their sum. What actually reached the wrapped
// transport (duplicates a chaos layer injected, say) is on its own Stats.
type ResilientBus struct {
	inner Bus
	cfg   ResilientConfig
	rec   *obs.Recorder

	mu           sync.Mutex                      // guards every field below
	nextSeq      map[string]uint64               // link -> last assigned seq
	expect       map[string]uint64               // link -> next expected seq
	pending      map[string]map[uint64]*Envelope // out-of-order buffer per link
	ready        map[string][]*Envelope          // in-order queue per recipient
	stats        Stats
	retries      int64
	redeliveries int64
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
		pending: make(map[string]map[uint64]*Envelope),
		ready:   make(map[string][]*Envelope),
		stats:   Stats{BytesByDir: make(map[string]int64), ByKind: make(map[Kind]int64)},
	}
}

// SetRecorder implements RecorderSetter: retry/redelivery metrics land on
// rec, and the recorder is forwarded to the wrapped transport for its
// per-message telemetry.
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

// Recv implements Bus: it delivers exactly the sender's application
// message stream per link — duplicates discarded, out-of-order envelopes
// buffered until their predecessors arrive, checksums verified. The
// wrapped transport's errors, a dead peer's among them, pass through.
func (r *ResilientBus) Recv(to string) (*Envelope, error) {
	for {
		r.mu.Lock()
		if q := r.ready[to]; len(q) > 0 {
			e := q[0]
			r.ready[to] = q[1:]
			r.mu.Unlock()
			return e, nil
		}
		r.mu.Unlock()
		e, err := r.inner.Recv(to)
		if err != nil {
			return nil, err
		}
		// Discard stale duplicates by sequence number before checksum
		// validation, as a real stack discards duplicate segments: the
		// in-order copy already delivered, so whatever this late copy's
		// payload looks like must not fail the run.
		if e.Seq != 0 {
			link := e.From + "->" + e.To
			r.mu.Lock()
			if exp := r.expect[link]; exp != 0 && e.Seq < exp {
				r.redeliveries++
				r.mu.Unlock()
				if r.rec != nil {
					r.rec.Redelivery(string(e.Kind))
				}
				continue
			}
			r.mu.Unlock()
		}
		if e.Sum != 0 && checksumEnvelope(e) != e.Sum {
			if r.rec != nil {
				r.rec.CorruptPayload(string(e.Kind))
			}
			return nil, fmt.Errorf("silo: %s->%s %s seq %d failed checksum: %w", e.From, e.To, e.Kind, e.Seq, ErrCorruptPayload)
		}
		if e.Seq == 0 {
			return e, nil // unsequenced sender (bare bus)
		}
		link := e.From + "->" + e.To
		r.mu.Lock()
		exp := r.expect[link]
		if exp == 0 {
			exp = 1
		}
		switch {
		case e.Seq < exp: // already delivered: duplicate
			r.redeliveries++
			r.mu.Unlock()
			if r.rec != nil {
				r.rec.Redelivery(string(e.Kind))
			}
		case e.Seq > exp: // early: hold until the gap fills
			pm := r.pending[link]
			if pm == nil {
				pm = make(map[uint64]*Envelope)
				r.pending[link] = pm
			}
			_, dup := pm[e.Seq]
			if !dup {
				pm[e.Seq] = e
			} else {
				r.redeliveries++
			}
			r.mu.Unlock()
			if dup && r.rec != nil {
				r.rec.Redelivery(string(e.Kind))
			}
		default: // in order: deliver, then release consecutive holds
			r.expect[link] = exp + 1
			pm := r.pending[link]
			for {
				next, ok := pm[r.expect[link]]
				if !ok {
					break
				}
				delete(pm, r.expect[link])
				r.expect[link]++
				r.ready[to] = append(r.ready[to], next)
			}
			r.mu.Unlock()
			return e, nil
		}
	}
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

// Redeliveries reports the number of receiver-side duplicate discards.
func (r *ResilientBus) Redeliveries() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.redeliveries
}
