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

	// CorruptPermille flips one payload bit in flight.
	CorruptPermille int
}

// ChaosProfileByName resolves the named fault profiles exposed by
// silofuse-demo's -chaos-profile flag: "drop" keeps MaxConsecutiveDrops
// below the resilient layer's default retry budget, so every message still
// arrives; "corrupt" must end a run with ErrCorruptPayload and "blackhole",
// which exceeds the budget, with ErrPeerDead.
func ChaosProfileByName(name string) (ChaosProfile, error) {
	switch name {
	case "", "none":
		return ChaosProfile{Name: "none"}, nil
	case "drop":
		return ChaosProfile{Name: name, DropPermille: 250, MaxConsecutiveDrops: 2}, nil
	case "corrupt":
		return ChaosProfile{Name: name, CorruptPermille: 120}, nil
	case "blackhole":
		return ChaosProfile{Name: name, DropPermille: 1000, MaxConsecutiveDrops: 1 << 30}, nil
	default:
		return ChaosProfile{}, errors.New("silo: unknown chaos profile " + name)
	}
}

// ChaosStats counts injected faults.
type ChaosStats struct {
	Drops, Corrupts int64
}

// ChaosBus wraps a Bus and injects faults from the profile's seeded
// schedule. Every decision (drop, corrupt) is taken on the send side as a
// pure function of the message identity, so it is bit-deterministic. It
// never duplicates or reorders a message: a link of any transport delivers
// in order and once, and a fault the program cannot meet is not one to
// fake.
type ChaosBus struct {
	inner Bus
	seed  uint64
	prof  ChaosProfile

	mu       sync.Mutex        // guards every field below
	pseudo   map[string]uint64 // per-link seq for unsequenced envelopes
	attempts map[chaosKey]int  // delivery attempts per message identity
	stats    ChaosStats
}

// chaosKey identifies one logical message on one link.
type chaosKey struct {
	link string
	seq  uint64
}

// Fault decision lanes: each fault class hashes the same message identity
// through a distinct lane so decisions are independent. Lanes 3-5 belonged
// to retired classes; the numbers stay so a seed keeps its decisions.
const (
	laneDrop       = 1
	laneDropCount  = 2
	laneCorrupt    = 6
	laneCorruptBit = 7
)

// NewChaosBus wraps inner with the seeded fault schedule.
func NewChaosBus(inner Bus, seed int64, prof ChaosProfile) *ChaosBus {
	return &ChaosBus{
		inner:    inner,
		seed:     uint64(seed),
		prof:     prof,
		pseudo:   make(map[string]uint64),
		attempts: make(map[chaosKey]int),
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
	return c.inner.Send(send)
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

// Recv implements Bus by delegating to the wrapped transport.
func (c *ChaosBus) Recv(to string) (*Envelope, error) { return c.inner.Recv(to) }

// Stats implements Bus by delegating to the wrapped transport.
func (c *ChaosBus) Stats() Stats { return c.inner.Stats() }

// FaultStats snapshots the injected-fault counters.
func (c *ChaosBus) FaultStats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}
