package silo

import (
	"errors"
	"math"
	"sync"

	"silofuse/internal/obs"
	"silofuse/internal/tensor"
)

// ErrDropped models a delivery deadline expiring on a lossy link: the
// ChaosBus returns it from Send instead of delivering the envelope, exactly
// as a sender with a per-message ack timeout would observe a drop. It is
// transient — the ResilientBus retries it — unlike the terminal ErrPeerDead.
var ErrDropped = errors.New("silo: message dropped (delivery deadline exceeded)")

// ChaosProfile describes a seeded fault schedule. Probabilities are in
// permille (0–1000) and are evaluated by a pure hash of (seed, link,
// sequence, fault lane), so a given seed injects the same faults on the
// same messages regardless of goroutine interleaving — no wall clock, no
// math/rand.
type ChaosProfile struct {
	Name string

	// DropPermille is the per-message probability that delivery fails with
	// ErrDropped. A dropped message stays dropped for up to
	// MaxConsecutiveDrops attempts (hash-chosen per message), then goes
	// through — keeping recoverable profiles within the resilient layer's
	// retry budget.
	DropPermille        int
	MaxConsecutiveDrops int

	// DupPermille delivers the message twice (network duplication).
	DupPermille int

	// ReorderPermille swaps the message with the next one already pending in
	// the recipient's inbox.
	ReorderPermille int

	// DelayPermille holds the message back for up to MaxDelayRecvs of the
	// recipient's subsequent receives, letting later messages overtake it.
	DelayPermille int
	MaxDelayRecvs int

	// CorruptPermille flips one payload bit in flight.
	CorruptPermille int
}

// ChaosProfileByName resolves the named fault profiles exposed by
// silofuse-demo's -chaos-profile flag. Recoverable profiles keep
// MaxConsecutiveDrops below the resilient layer's default retry budget;
// "blackhole" intentionally exceeds it to exercise the ErrPeerDead path.
func ChaosProfileByName(name string) (ChaosProfile, error) {
	switch name {
	case "", "none":
		return ChaosProfile{Name: "none"}, nil
	case "drop":
		return ChaosProfile{Name: name, DropPermille: 250, MaxConsecutiveDrops: 2}, nil
	case "dup":
		return ChaosProfile{Name: name, DupPermille: 300}, nil
	case "reorder":
		return ChaosProfile{Name: name, ReorderPermille: 300}, nil
	case "delay":
		return ChaosProfile{Name: name, DelayPermille: 300, MaxDelayRecvs: 3}, nil
	case "corrupt":
		return ChaosProfile{Name: name, CorruptPermille: 120}, nil
	case "flaky":
		return ChaosProfile{
			Name:         name,
			DropPermille: 150, MaxConsecutiveDrops: 2,
			DupPermille:     150,
			ReorderPermille: 150,
			DelayPermille:   150, MaxDelayRecvs: 2,
		}, nil
	case "blackhole":
		return ChaosProfile{Name: name, DropPermille: 1000, MaxConsecutiveDrops: 1 << 30}, nil
	default:
		return ChaosProfile{}, errors.New("silo: unknown chaos profile " + name)
	}
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Drops, Dups, Reorders, Delays, Corrupts int64
}

// stashed is one receive-side held-back envelope: age is the number of the
// recipient's remaining receives it may sit out.
type stashed struct {
	e   *Envelope
	age int
}

// ChaosBus wraps a Bus and injects faults from the profile's seeded
// schedule. Send-side decisions (drop, duplicate, corrupt) are pure
// functions of the message identity and therefore bit-deterministic;
// receive-side faults (reorder, delay) have a seeded decision schedule but
// act only on messages already in flight, so they can never block a
// delivery that the protocol is waiting for — liveness is unconditional.
type ChaosBus struct {
	inner Bus
	seed  uint64
	prof  ChaosProfile

	mu       sync.Mutex           // guards every field below
	pseudo   map[string]uint64    // per-link seq for unsequenced envelopes
	attempts map[chaosKey]int     // delivery attempts per message identity
	stash    map[string][]stashed // held-back envelopes per recipient
	stats    ChaosStats
}

// chaosKey identifies one logical message on one link.
type chaosKey struct {
	link string
	seq  uint64
}

// Fault decision lanes: each fault class hashes the same message identity
// through a distinct lane so decisions are independent.
const (
	laneDrop = 1 + iota
	laneDropCount
	laneDup
	laneReorder
	laneDelay
	laneCorrupt
	laneCorruptBit
)

// NewChaosBus wraps inner with the seeded fault schedule.
func NewChaosBus(inner Bus, seed int64, prof ChaosProfile) *ChaosBus {
	return &ChaosBus{
		inner:    inner,
		seed:     uint64(seed),
		prof:     prof,
		pseudo:   make(map[string]uint64),
		attempts: make(map[chaosKey]int),
		stash:    make(map[string][]stashed),
	}
}

// SetRecorder implements RecorderSetter by forwarding to the inner bus.
func (c *ChaosBus) SetRecorder(rec *obs.Recorder) {
	if rs, ok := c.inner.(RecorderSetter); ok {
		rs.SetRecorder(rec)
	}
}

// splitmix64 is the finaliser of the splitmix64 generator — a full-avalanche
// 64-bit mix used to turn message identities into fault decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide hashes one message identity through a fault lane.
func (c *ChaosBus) decide(link string, seq, lane uint64) uint64 {
	h := c.seed ^ 0x9e3779b97f4a7c15
	for i := 0; i < len(link); i++ {
		h = (h ^ uint64(link[i])) * 0x100000001b3
	}
	h ^= splitmix64(seq)
	return splitmix64(h ^ lane*0xc4ceb9fe1a85ec53)
}

// hit evaluates a permille probability on a decision hash.
func hit(h uint64, permille int) bool { return int(h%1000) < permille }

// key derives the message identity: the resilient layer's sequence number
// when present (stable across retransmissions), else a per-link counter.
func (c *ChaosBus) key(e *Envelope) chaosKey {
	link := e.From + "->" + e.To
	if e.Seq != 0 {
		return chaosKey{link: link, seq: e.Seq}
	}
	c.mu.Lock()
	c.pseudo[link]++
	k := chaosKey{link: link, seq: c.pseudo[link] | 1<<63}
	c.mu.Unlock()
	return k
}

// Send implements Bus, applying send-side faults.
func (c *ChaosBus) Send(e *Envelope) error {
	k := c.key(e)
	c.mu.Lock()
	c.attempts[k]++
	attempt := c.attempts[k]
	c.mu.Unlock()
	if c.prof.DropPermille > 0 && hit(c.decide(k.link, k.seq, laneDrop), c.prof.DropPermille) {
		drops := 1
		if c.prof.MaxConsecutiveDrops > 1 {
			drops = 1 + int(c.decide(k.link, k.seq, laneDropCount)%uint64(c.prof.MaxConsecutiveDrops))
		}
		if attempt <= drops {
			c.mu.Lock()
			c.stats.Drops++
			c.mu.Unlock()
			return ErrDropped
		}
	}
	send := e
	if c.prof.CorruptPermille > 0 && corruptible(e) &&
		hit(c.decide(k.link, k.seq, laneCorrupt), c.prof.CorruptPermille) && attempt == 1 {
		send = c.corrupt(e, k)
	}
	if err := c.inner.Send(send); err != nil {
		return err
	}
	if c.prof.DupPermille > 0 && hit(c.decide(k.link, k.seq, laneDup), c.prof.DupPermille) && attempt == 1 {
		c.mu.Lock()
		c.stats.Dups++
		c.mu.Unlock()
		// A network duplicate is an independent copy of the serialized
		// bytes: deep-copy the payload so the late copy stays intact even
		// after the application mutates the first delivery in place.
		dup := *send
		if dup.Payload != nil {
			dup.Payload = tensor.FromSlice(dup.Payload.Rows, dup.Payload.Cols,
				append([]float64(nil), dup.Payload.Data...))
		}
		if dup.Blob != nil {
			dup.Blob = append([]byte(nil), dup.Blob...)
		}
		if err := c.inner.Send(&dup); err != nil {
			return err
		}
	}
	return nil
}

// corruptible reports whether e carries tensor data the corrupt fault can
// flip a bit in: a native float64 payload or a codec-framed blob.
func corruptible(e *Envelope) bool {
	if e.Payload != nil && len(e.Payload.Data) > 0 {
		return true
	}
	return e.Codec != 0 && len(e.Blob) > 0
}

// corrupt returns a copy of e with one hash-chosen payload bit flipped, so
// the original sender retains intact data for retransmission. Codec-framed
// envelopes get a bit flipped in the encoded blob — the corruption happens
// on the serialized wire representation, exactly as a network would.
func (c *ChaosBus) corrupt(e *Envelope, k chaosKey) *Envelope {
	cp := *e
	if e.Payload != nil && len(e.Payload.Data) > 0 {
		cp.Payload = tensor.FromSlice(e.Payload.Rows, e.Payload.Cols, append([]float64(nil), e.Payload.Data...))
		i := int(c.decide(k.link, k.seq, laneCorruptBit) % uint64(len(cp.Payload.Data)))
		cp.Payload.Data[i] = math.Float64frombits(math.Float64bits(cp.Payload.Data[i]) ^ 1)
	} else {
		cp.Blob = append([]byte(nil), e.Blob...)
		bit := c.decide(k.link, k.seq, laneCorruptBit) % uint64(len(cp.Blob)*8)
		cp.Blob[bit/8] ^= 1 << (bit % 8)
	}
	c.mu.Lock()
	c.stats.Corrupts++
	c.mu.Unlock()
	return &cp
}

// Recv implements Bus, applying receive-side faults. It never blocks while
// holding a deliverable message, so reorder and delay cannot deadlock a
// lockstep protocol: a delayed envelope is released as soon as nothing can
// overtake it.
func (c *ChaosBus) Recv(to string) (*Envelope, error) {
	for {
		if e := c.popDue(to); e != nil {
			return e, nil
		}
		var e *Envelope
		if c.holding(to) {
			got, ok := c.tryInner(to)
			if !ok {
				return c.popStash(to), nil
			}
			e = got
		} else {
			got, err := c.inner.Recv(to)
			if err != nil {
				return nil, err
			}
			e = got
		}
		link := e.From + "->" + e.To
		seq := e.Seq
		if c.prof.ReorderPermille > 0 && hit(c.decide(link, seq, laneReorder), c.prof.ReorderPermille) {
			if next, ok := c.tryInner(to); ok {
				c.push(to, e, 0)
				c.mu.Lock()
				c.stats.Reorders++
				c.mu.Unlock()
				return next, nil
			}
		}
		if c.prof.DelayPermille > 0 && hit(c.decide(link, seq, laneDelay), c.prof.DelayPermille) {
			c.push(to, e, c.prof.MaxDelayRecvs)
			c.mu.Lock()
			c.stats.Delays++
			c.mu.Unlock()
			continue
		}
		return e, nil
	}
}

// tryInner polls the inner bus without blocking; a transport without
// TryRecv disables receive-side faults.
func (c *ChaosBus) tryInner(to string) (*Envelope, bool) {
	if tr, ok := c.inner.(TryReceiver); ok {
		return tr.TryRecv(to)
	}
	return nil, false
}

// popDue ages the recipient's stash by one receive and releases the first
// envelope whose delay has expired.
func (c *ChaosBus) popDue(to string) *Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stash[to]
	for i := range s {
		s[i].age--
	}
	for i := range s {
		if s[i].age <= 0 {
			e := s[i].e
			c.stash[to] = append(s[:i], s[i+1:]...)
			return e
		}
	}
	return nil
}

func (c *ChaosBus) holding(to string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.stash[to]) > 0
}

// popStash force-releases the oldest held envelope — the liveness valve
// used when nothing can overtake it anyway.
func (c *ChaosBus) popStash(to string) *Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stash[to]
	e := s[0].e
	c.stash[to] = s[1:]
	return e
}

// push stashes a held-back envelope. The stash models packets in flight —
// serialized bytes, not shared memory — so the payload is deep-copied:
// once the sender's wave completes it may legitimately reuse the payload
// buffer, and a held reference would see the mutation.
func (c *ChaosBus) push(to string, e *Envelope, age int) {
	if e.Payload != nil || e.Blob != nil {
		cp := *e
		if e.Payload != nil {
			cp.Payload = tensor.FromSlice(e.Payload.Rows, e.Payload.Cols,
				append([]float64(nil), e.Payload.Data...))
		}
		if e.Blob != nil {
			cp.Blob = append([]byte(nil), e.Blob...)
		}
		e = &cp
	}
	c.mu.Lock()
	c.stash[to] = append(c.stash[to], stashed{e: e, age: age})
	c.mu.Unlock()
}

// Stats implements Bus by delegating to the wrapped transport.
func (c *ChaosBus) Stats() Stats { return c.inner.Stats() }

// FaultStats snapshots the injected-fault counters.
func (c *ChaosBus) FaultStats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
