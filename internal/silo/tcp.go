package silo

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"silofuse/internal/obs"
)

// endpoint is what TCPHub and TCPPeer share: the traffic counters of one
// party's sockets, the write deadline and the recorder its links book into.
type endpoint struct {
	rec *obs.Recorder

	statsMu   sync.Mutex // guards stats and ioTimeout
	stats     Stats
	ioTimeout time.Duration
}

func newEndpoint() endpoint {
	return endpoint{stats: Stats{BytesByDir: make(map[string]int64), ByKind: make(map[Kind]int64)}}
}

// SetRecorder implements RecorderSetter.
func (ep *endpoint) SetRecorder(rec *obs.Recorder) { ep.rec = rec }

// SetIOTimeout installs a per-message write deadline on this endpoint's
// sends; the resilient layer forwards its SendDeadline here. Zero disables
// deadlines.
func (ep *endpoint) SetIOTimeout(d time.Duration) {
	ep.statsMu.Lock()
	ep.ioTimeout = d
	ep.statsMu.Unlock()
}

// Stats implements Bus. Each endpoint counts only what it writes to its
// sockets; received bytes are the sending side's to count.
func (ep *endpoint) Stats() Stats {
	ep.statsMu.Lock()
	defer ep.statsMu.Unlock()
	return copyStats(ep.stats)
}

// link is one framed TCP stream, the send and receive path of both the hub
// side and the peer side of a connection. sendMu serialises writers so
// frames never interleave; recvMu does the same for readers of r.
type link struct {
	ep   *endpoint
	conn net.Conn
	dir  string // this direction's Stats.BytesByDir bucket

	sendMu sync.Mutex
	buf    []byte

	recvMu sync.Mutex
	r      *bufio.Reader
}

func (ep *endpoint) newLink(conn net.Conn, dir string) *link {
	return &link{ep: ep, conn: conn, dir: dir, r: bufio.NewReader(conn)}
}

// send frames e, writes the frame with one conn.Write and books the bytes
// written — the frame's length, e.WireSize(), unless the write failed part
// way — under the envelope's kind. A hello opens the stream and counts as
// bytes only, not as a message.
func (l *link) send(e *Envelope) error {
	ep := l.ep
	t0 := ep.rec.Now()
	kind := e.statKind()
	ep.statsMu.Lock()
	timeout := ep.ioTimeout
	ep.statsMu.Unlock()
	l.sendMu.Lock()
	frame, err := appendFrame(l.buf[:0], e)
	if err != nil {
		l.sendMu.Unlock()
		return err
	}
	l.buf = frame
	if timeout > 0 {
		// Per-message write deadline so a dead socket fails the send instead
		// of blocking forever. The deadline is IO plumbing, never observed by
		// the deterministic protocol logic.
		l.conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	written, err := l.conn.Write(frame)
	l.sendMu.Unlock()
	n, message := int64(written), e.Kind != kindHello
	ep.statsMu.Lock()
	ep.stats.Bytes += n
	ep.stats.BytesByDir[l.dir] += n
	if message {
		ep.stats.Messages++
		ep.stats.ByKind[kind] += n
	}
	ep.statsMu.Unlock()
	if message && ep.rec != nil {
		ep.rec.Message(string(kind), n, ep.rec.Since(t0))
	}
	return err
}

// recv reads the next frame off the stream.
func (l *link) recv() (*Envelope, error) {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	return readFrame(l.r)
}

// TCPHub is the coordinator-side transport: it listens for client
// connections and routes envelopes between parties. Envelopes addressed to
// the hub's own name land in its local inbox; everything else is forwarded
// to the destination peer. It implements Bus with real measured wire bytes.
type TCPHub struct {
	Name string
	endpoint

	ln    net.Listener
	inbox chan *Envelope
	done  chan struct{} // closed by Close; releases a route blocked on a full inbox
	wg    sync.WaitGroup

	mu         sync.Mutex            // guards every field below
	conns      map[net.Conn]struct{} // every accepted connection still being served, registered or not
	peers      map[string]*link
	closing    bool
	beats      map[string]int64 // heartbeats received per peer
	reconnects map[string]int64 // re-registrations per peer
}

// PeerHealth is the hub-side liveness view of one peer, which the heartbeat
// and recovery tests observe: whether a connection is registered, how many
// heartbeats it has delivered, how many times it has re-registered after a
// disconnect, and the bytes the hub has written to it.
type PeerHealth struct {
	Connected  bool  `json:"connected"`
	Heartbeats int64 `json:"heartbeats"`
	Reconnects int64 `json:"reconnects"`
	SentBytes  int64 `json:"sent_bytes"`
}

// NewTCPHub starts a hub listening on addr (e.g. "127.0.0.1:0").
func NewTCPHub(name, addr string) (*TCPHub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("silo: hub listen: %w", err)
	}
	h := &TCPHub{
		Name:       name,
		endpoint:   newEndpoint(),
		ln:         ln,
		inbox:      make(chan *Envelope, 1024),
		done:       make(chan struct{}),
		conns:      make(map[net.Conn]struct{}),
		peers:      make(map[string]*link),
		beats:      make(map[string]int64),
		reconnects: make(map[string]int64),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// Addr returns the hub's listen address.
func (h *TCPHub) Addr() string { return h.ln.Addr().String() }

// Peers lists the names of currently registered peers in sorted order.
func (h *TCPHub) Peers() []string {
	h.mu.Lock()
	names := make([]string, 0, len(h.peers))
	for name := range h.peers {
		names = append(names, name)
	}
	h.mu.Unlock()
	sort.Strings(names)
	return names
}

func (h *TCPHub) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.ln.Accept()
		if err != nil {
			return // listener closed
		}
		h.mu.Lock()
		if h.closing {
			h.mu.Unlock()
			conn.Close()
			return
		}
		h.conns[conn] = struct{}{}
		h.wg.Add(1)
		h.mu.Unlock()
		go h.serveConn(conn)
	}
}

// serveConn owns one accepted connection: it reads the hello, registers the
// peer, routes its frames until the stream ends, then deregisters it and
// announces the death.
func (h *TCPHub) serveConn(conn net.Conn) {
	defer h.wg.Done()
	defer func() {
		conn.Close()
		h.mu.Lock()
		delete(h.conns, conn)
		h.mu.Unlock()
	}()
	pc := h.newLink(conn, "")
	hello, err := pc.recv()
	if err != nil || hello.Kind != kindHello {
		return
	}
	name := hello.From
	pc.dir = h.Name + "->" + name // before the link is shared
	h.mu.Lock()
	// A re-dial is visible two ways: a fresh connection superseding a live
	// registration, or a hello that announces itself as a reconnect (Seq > 0)
	// after the dead conn already deregistered. Count both.
	redial := hello.Seq > 0
	if old := h.peers[name]; old != nil {
		redial = true
		old.conn.Close() // superseded; its serveConn exits without deregistering us
	}
	if redial {
		h.reconnects[name]++
	}
	h.peers[name] = pc
	h.mu.Unlock()
	if h.rec != nil && hello.Seq > 0 {
		h.rec.Reconnect(name) // peer announced a re-dial in its hello
	}

	err = h.route(pc, name)

	// Deregister and announce the death unless a reconnect has already
	// replaced this conn or the hub itself is shutting down.
	h.mu.Lock()
	stale := h.peers[name] != pc
	closing := h.closing
	if !stale {
		delete(h.peers, name)
	}
	h.mu.Unlock()
	if stale || closing {
		return
	}
	if h.rec != nil {
		if errors.Is(err, ErrCorruptPayload) {
			h.rec.CorruptPayload("frame") // the flight recorder says why the peer was dropped
		}
		h.rec.PeerDown(name)
	}
	select { // non-blocking: a full inbox must not wedge the accept path
	case h.inbox <- &Envelope{From: name, To: h.Name, Kind: KindPeerDown}:
	default:
	}
}

// route delivers one peer's frames until its stream ends and returns why it
// ended: io.EOF for a clean close or a hub shutdown, an
// ErrCorruptPayload-class error for bytes that were not a frame, the
// connection's own error otherwise.
func (h *TCPHub) route(pc *link, name string) error {
	for {
		e, err := pc.recv()
		if err != nil {
			return err
		}
		switch {
		case e.Kind == KindHeartbeat:
			h.mu.Lock()
			h.beats[name]++
			h.mu.Unlock()
		case e.To == h.Name:
			select {
			case h.inbox <- e:
			case <-h.done:
				return io.EOF
			}
		default:
			if dst := h.waitPeer(e.To); dst != nil {
				_ = dst.send(e)
			}
		}
	}
}

// waitPeer returns the destination's link, waiting briefly for its hello to
// be processed: peers dial concurrently, so a forwarded message can
// otherwise race the recipient's registration and be dropped. A closing hub
// stops waiting.
func (h *TCPHub) waitPeer(name string) *link {
	for i := 0; i < 1000; i++ {
		h.mu.Lock()
		pc, closing := h.peers[name], h.closing
		h.mu.Unlock()
		if pc != nil || closing {
			return pc
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// Send implements Bus for the hub side.
func (h *TCPHub) Send(e *Envelope) error {
	if h.rec != nil {
		if e.Flow == 0 {
			e.Flow = h.rec.NextFlow()
		}
		h.rec.Trace.FlowSend(string(e.Kind), e.Flow)
	}
	if e.To == h.Name {
		h.statsMu.Lock()
		h.stats.Messages++
		h.statsMu.Unlock()
		if h.rec != nil {
			h.rec.Message(string(e.Kind), 0, 0) // local delivery, no wire bytes
		}
		h.inbox <- e
		return nil
	}
	dst := h.waitPeer(e.To)
	if dst == nil {
		return fmt.Errorf("silo: hub has no peer %q", e.To)
	}
	return dst.send(e)
}

// Recv implements Bus for the hub side. A peer-down notice (injected when
// a peer's connection dies) surfaces as a PeerDeadError — unless the peer
// has already re-registered, in which case the stale notice is dropped.
func (h *TCPHub) Recv(to string) (*Envelope, error) {
	if to != h.Name {
		return nil, fmt.Errorf("silo: hub Recv is only for %q", h.Name)
	}
	for {
		e, ok := <-h.inbox
		if !ok {
			return nil, fmt.Errorf("silo: hub inbox closed")
		}
		if e.Kind == KindPeerDown {
			h.mu.Lock()
			revived := h.peers[e.From] != nil
			h.mu.Unlock()
			if revived {
				continue
			}
			return nil, &PeerDeadError{Peer: e.From}
		}
		if h.rec != nil {
			h.rec.Trace.FlowRecv(string(e.Kind), e.Flow)
		}
		return e, nil
	}
}

// TryRecv implements TryReceiver for the hub's own inbox; other recipients
// live behind peer sockets and cannot be polled, so the drain between
// recovery attempts only touches hub-bound traffic (a restarted peer gets
// a fresh stream anyway).
func (h *TCPHub) TryRecv(to string) (*Envelope, bool) {
	if to != h.Name {
		return nil, false
	}
	select {
	case e, ok := <-h.inbox:
		if !ok {
			return nil, false
		}
		return e, true
	default:
		return nil, false
	}
}

// PeerHealth reports the hub-side liveness view of every peer it has ever
// seen.
func (h *TCPHub) PeerHealth() map[string]PeerHealth {
	sent := h.Stats().BytesByDir
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]PeerHealth)
	for name := range h.peers {
		out[name] = PeerHealth{Connected: true}
	}
	for name, n := range h.beats {
		ph := out[name]
		ph.Heartbeats = n
		out[name] = ph
	}
	for name, n := range h.reconnects {
		ph := out[name]
		ph.Reconnects = n
		out[name] = ph
	}
	for name, ph := range out {
		ph.SentBytes = sent[h.Name+"->"+name]
		out[name] = ph
	}
	return out
}

// Close shuts the hub down and returns once the accept loop and every
// connection goroutine have exited. Closing the sockets ends their reads
// and done releases one blocked on a full inbox, so Close cannot hang on a
// caller that has stopped receiving.
func (h *TCPHub) Close() error {
	h.mu.Lock()
	first := !h.closing
	h.closing = true
	for conn := range h.conns {
		conn.Close()
	}
	h.mu.Unlock()
	if !first {
		return nil
	}
	close(h.done)
	err := h.ln.Close()
	h.wg.Wait()
	return err
}

// TCPPeer is a client-side transport connected to a TCPHub.
type TCPPeer struct {
	Name string
	endpoint

	link atomic.Pointer[link] // replaced whole by Reconnect
}

// dial opens a stream to the hub and writes the hello, the first frame the
// hub reads on it; seq > 0 announces a re-dial.
func (p *TCPPeer) dial(addr string, seq uint64) (*link, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	l := p.newLink(conn, p.Name+"->hub")
	if err := l.send(&Envelope{From: p.Name, Kind: kindHello, Seq: seq}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return l, nil
}

// DialHub connects to a hub and announces the peer's name.
func DialHub(name, addr string) (*TCPPeer, error) {
	p := &TCPPeer{Name: name, endpoint: newEndpoint()}
	l, err := p.dial(addr, 0)
	if err != nil {
		return nil, fmt.Errorf("silo: dial hub: %w", err)
	}
	p.link.Store(l)
	return p, nil
}

// Send implements Bus (all traffic is routed via the hub).
func (p *TCPPeer) Send(e *Envelope) error {
	if p.rec != nil && e.Kind != KindHeartbeat {
		if e.Flow == 0 {
			e.Flow = p.rec.NextFlow()
		}
		p.rec.Trace.FlowSend(string(e.Kind), e.Flow)
	}
	return p.link.Load().send(e)
}

// Recv implements Bus; only the peer's own inbox is reachable.
func (p *TCPPeer) Recv(to string) (*Envelope, error) {
	if to != p.Name {
		return nil, fmt.Errorf("silo: peer %q cannot receive for %q", p.Name, to)
	}
	e, err := p.link.Load().recv()
	if err != nil {
		return nil, err
	}
	if p.rec != nil {
		p.rec.Trace.FlowRecv(string(e.Kind), e.Flow)
	}
	return e, nil
}

// Reconnect re-dials the hub after a connection loss and announces the
// peer under its existing name, superseding the dead registration at the
// hub. Any Recv blocked on the old stream is unblocked with an error
// first, and a Send still holding the old stream fails on its closed
// socket. The hello is written before the new stream is published, so it is
// the first frame on it. The peer's traffic counters live on the endpoint,
// not the stream — a restarted transport keeps its byte accounting.
func (p *TCPPeer) Reconnect(addr string) error {
	p.link.Load().conn.Close()
	l, err := p.dial(addr, 1)
	if err != nil {
		return fmt.Errorf("silo: reconnect %s: %w", p.Name, err)
	}
	p.link.Store(l)
	if p.rec != nil {
		p.rec.Reconnect(p.Name)
	}
	return nil
}

// StartHeartbeat launches a background goroutine that sends a KindHeartbeat
// envelope to the hub every interval, feeding the hub's per-peer liveness
// counters (PeerHealth). Send failures are ignored — a dead connection is
// precisely what the missing beats will reveal. The returned stop function
// is idempotent and waits for the goroutine to exit.
func (p *TCPPeer) StartHeartbeat(every time.Duration) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				_ = p.Send(&Envelope{From: p.Name, Kind: KindHeartbeat})
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// Close closes the connection.
func (p *TCPPeer) Close() error { return p.link.Load().conn.Close() }
