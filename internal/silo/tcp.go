package silo

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"silofuse/internal/obs"
)

// endpoint is what TCPHub and TCPPeer share: the traffic counters of one
// party's sockets and the recorder its links book into.
type endpoint struct {
	rec *obs.Recorder

	statsMu sync.Mutex // guards stats
	stats   Stats
}

func newEndpoint() endpoint {
	return endpoint{stats: Stats{BytesByDir: make(map[string]int64), ByKind: make(map[Kind]int64)}}
}

// SetRecorder implements RecorderSetter.
func (ep *endpoint) SetRecorder(rec *obs.Recorder) { ep.rec = rec }

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
// bytes only, not as a message. A failed write has broken the stream, and
// may have left a torn frame on it, so it is a PeerDeadError naming the
// recipient: nothing can be sent on that stream again.
func (l *link) send(e *Envelope) error {
	ep := l.ep
	t0 := ep.rec.Now()
	l.sendMu.Lock()
	frame, err := appendFrame(l.buf[:0], e)
	if err != nil {
		l.sendMu.Unlock()
		return err
	}
	l.buf = frame
	written, err := l.conn.Write(frame)
	l.sendMu.Unlock()
	n, message := int64(written), e.Kind != kindHello
	ep.statsMu.Lock()
	ep.stats.Bytes += n
	ep.stats.BytesByDir[l.dir] += n
	if message {
		ep.stats.Messages++
		ep.stats.ByKind[e.Kind] += n
	}
	ep.statsMu.Unlock()
	if message && ep.rec != nil {
		ep.rec.Message(string(e.Kind), n, ep.rec.Since(t0))
	}
	if err != nil {
		return &PeerDeadError{Peer: e.To, Cause: err}
	}
	return nil
}

// recv reads the next frame off the stream.
func (l *link) recv() (*Envelope, error) {
	l.recvMu.Lock()
	defer l.recvMu.Unlock()
	return readFrame(l.r)
}

// TCPHub is the coordinator-side transport: it listens for client
// connections, takes what they send into its own inbox and sends to each of
// them on its stream. It implements Bus with real measured wire bytes.
//
// A peer's stream speaks only for the name it said hello with and only to
// the hub: a frame from another name or for another recipient, a hello or
// peer-down notice after the first frame, and a hello for a name already
// registered or already dead all end the stream as a corrupt one.
// A peer whose stream ends is dead for the rest of the run: the hub's Recv
// reports it as a PeerDeadError, and so does a Send to it, at once.
type TCPHub struct {
	Name string
	endpoint

	ln    net.Listener
	inbox chan *Envelope
	done  chan struct{} // closed by Close; releases a route, Send or Recv blocked on the inbox
	wg    sync.WaitGroup

	mu      sync.Mutex            // guards every field below
	conns   map[net.Conn]struct{} // every accepted connection still being served, registered or not
	peers   map[string]*link      // a name whose stream ended stays, with a nil link
	closing bool
}

// NewTCPHub starts a hub listening on addr (e.g. "127.0.0.1:0").
func NewTCPHub(name, addr string) (*TCPHub, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("silo: hub listen: %w", err)
	}
	h := &TCPHub{
		Name:     name,
		endpoint: newEndpoint(),
		ln:       ln,
		inbox:    make(chan *Envelope, 1024),
		done:     make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
		peers:    make(map[string]*link),
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
	for name, pc := range h.peers {
		if pc != nil {
			names = append(names, name)
		}
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
// peer, routes its frames until the stream ends, then marks it dead and
// announces the death. A hello for a name already registered, live or dead,
// is refused like a corrupt frame, and the registration stays as it was.
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
	_, taken := h.peers[name]
	if !taken {
		h.peers[name] = pc
	}
	h.mu.Unlock()

	if taken {
		err = corruptFrame("hello from %q, a peer already registered", name)
	} else {
		err = h.route(pc, name)
	}

	// Mark the peer dead and announce the death unless the hub itself is
	// shutting down.
	h.mu.Lock()
	if !taken {
		h.peers[name] = nil
	}
	closing := h.closing
	h.mu.Unlock()
	if closing {
		return
	}
	if h.rec != nil {
		if errors.Is(err, ErrCorruptPayload) {
			h.rec.CorruptPayload("frame") // the flight recorder says why the peer was dropped
		}
		h.rec.PeerDown(name)
	}
	select { // non-blocking: a full inbox must not wedge the accept path
	case h.inbox <- &Envelope{From: name, To: h.Name, Kind: kindPeerDown}:
	default:
	}
}

// route delivers one peer's frames to the hub's inbox until its stream ends
// and returns why it ended: io.EOF for a clean close or a hub shutdown, an
// ErrCorruptPayload-class error for bytes that were not a frame or a frame
// the stream may not carry (one from a name other than the hello's, one
// addressed to anyone but the hub, a hello or a peer-down notice), the
// connection's own error otherwise. Every protocol's client traffic is for
// the coordinator, which is the hub, so the hub forwards nothing.
func (h *TCPHub) route(pc *link, name string) error {
	for {
		e, err := pc.recv()
		if err != nil {
			return err
		}
		if e.From != name || e.To != h.Name || e.Kind == kindHello || e.Kind == kindPeerDown {
			return corruptFrame("%s frame from %q to %q on %q's stream", e.Kind, e.From, e.To, name)
		}
		select {
		case h.inbox <- e:
		case <-h.done:
			return io.EOF
		}
	}
}

// errNoStream and errStreamEnded are the causes of the PeerDeadError a hub's
// Send returns for a peer that never registered and for one whose stream
// has ended.
var (
	errNoStream    = errors.New("the hub has no stream to it")
	errStreamEnded = errors.New("its stream to the hub has ended")
)

// waitPeer returns the destination's link, waiting briefly for its hello to
// be processed: peers dial concurrently, so the hub's first message to a
// peer can otherwise race its registration. A closing hub stops waiting
// with ErrBusClosed; a peer whose stream has ended is dead at once, and one
// with no stream after the wait is dead too.
func (h *TCPHub) waitPeer(name string) (*link, error) {
	for i := 0; i < 1000; i++ {
		h.mu.Lock()
		pc, known := h.peers[name]
		closing := h.closing
		h.mu.Unlock()
		switch {
		case pc != nil:
			return pc, nil
		case closing:
			return nil, fmt.Errorf("silo: hub %q: %w", h.Name, ErrBusClosed)
		case known:
			return nil, &PeerDeadError{Peer: name, Cause: errStreamEnded}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, &PeerDeadError{Peer: name, Cause: errNoStream}
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
		select {
		case h.inbox <- e:
			return nil
		case <-h.done:
			return fmt.Errorf("silo: hub %q: %w", h.Name, ErrBusClosed)
		}
	}
	dst, err := h.waitPeer(e.To)
	if err != nil {
		return err
	}
	return dst.send(e)
}

// Recv implements Bus for the hub side. A peer-down notice (injected when
// a peer's stream ends) surfaces as a PeerDeadError; once Close has begun,
// Recv returns an error wrapping ErrBusClosed instead of blocking.
func (h *TCPHub) Recv(to string) (*Envelope, error) {
	if to != h.Name {
		return nil, fmt.Errorf("silo: hub Recv is only for %q", h.Name)
	}
	select {
	case e := <-h.inbox:
		if e.Kind == kindPeerDown {
			return nil, &PeerDeadError{Peer: e.From}
		}
		if h.rec != nil {
			h.rec.Trace.FlowRecv(string(e.Kind), e.Flow)
		}
		return e, nil
	case <-h.done:
		return nil, fmt.Errorf("silo: hub %q: %w", h.Name, ErrBusClosed)
	}
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

	link *link
}

// DialHub connects to a hub and announces the peer's name with a hello, the
// first frame the hub reads on the stream.
func DialHub(name, addr string) (*TCPPeer, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("silo: dial hub: %w", err)
	}
	p := &TCPPeer{Name: name, endpoint: newEndpoint()}
	p.link = p.newLink(conn, name+"->hub")
	if err := p.link.send(&Envelope{From: name, Kind: kindHello}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("silo: dial hub: hello: %w", err)
	}
	return p, nil
}

// Send implements Bus (all traffic is routed via the hub).
func (p *TCPPeer) Send(e *Envelope) error {
	if p.rec != nil {
		if e.Flow == 0 {
			e.Flow = p.rec.NextFlow()
		}
		p.rec.Trace.FlowSend(string(e.Kind), e.Flow)
	}
	return p.link.send(e)
}

// Recv implements Bus; only the peer's own inbox is reachable.
func (p *TCPPeer) Recv(to string) (*Envelope, error) {
	if to != p.Name {
		return nil, fmt.Errorf("silo: peer %q cannot receive for %q", p.Name, to)
	}
	e, err := p.link.recv()
	if err != nil {
		return nil, err
	}
	if p.rec != nil {
		p.rec.Trace.FlowRecv(string(e.Kind), e.Flow)
	}
	return e, nil
}

// Close closes the connection.
func (p *TCPPeer) Close() error { return p.link.conn.Close() }
