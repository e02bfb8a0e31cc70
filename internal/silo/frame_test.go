//silofuse:bitwise-ok frame tests compare round-tripped tensors bit for bit
package silo

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"silofuse/internal/obs"
	"silofuse/internal/silo/codec"
	"silofuse/internal/tensor"
)

// frameBodies are the four ways an envelope holds (or frames) a tensor.
var frameBodies = []string{"native", "f64", "f32", "q8"}

// frameStamps are the header variants: as the application sent it, stamped
// by the resilient layer, and carrying a trace context.
var frameStamps = []string{"bare", "sequenced", "traced"}

// buildEnvelope makes one envelope of the kind × body × stamp grid.
func buildEnvelope(t testing.TB, from, to string, kind Kind, body, stamp string, m *tensor.Matrix) *Envelope {
	t.Helper()
	e := &Envelope{From: from, To: to, Kind: kind}
	if body == "native" {
		e.Payload = m
	} else {
		id, err := codec.ByName(body)
		if err != nil {
			t.Fatal(err)
		}
		blob, _, err := codec.Encode(id, m)
		if err != nil {
			t.Fatal(err)
		}
		e.Codec, e.Rows, e.Cols, e.Blob = id, m.Rows, m.Cols, blob
	}
	switch stamp {
	case "sequenced":
		e.Seq, e.Sum = 7, checksumEnvelope(e)
	case "traced":
		e.Flow = 3<<32 | 41
	}
	return e
}

// sameEnvelope reports the first field in which a delivered envelope differs
// from the one sent, tensors compared bit for bit.
func sameEnvelope(sent, got *Envelope) error {
	switch {
	case got.From != sent.From || got.To != sent.To || got.Kind != sent.Kind:
		return fmt.Errorf("routing %s->%s %s, sent %s->%s %s", got.From, got.To, got.Kind, sent.From, sent.To, sent.Kind)
	case got.Flow != sent.Flow || got.Seq != sent.Seq || got.Sum != sent.Sum:
		return fmt.Errorf("stamps flow=%d seq=%d sum=%d, sent flow=%d seq=%d sum=%d",
			got.Flow, got.Seq, got.Sum, sent.Flow, sent.Seq, sent.Sum)
	case got.Codec != sent.Codec || got.Rows != sent.Rows || got.Cols != sent.Cols || !bytes.Equal(got.Blob, sent.Blob):
		return fmt.Errorf("codec body %s %dx%d (%d B), sent %s %dx%d (%d B)",
			got.Codec, got.Rows, got.Cols, len(got.Blob), sent.Codec, sent.Rows, sent.Cols, len(sent.Blob))
	case (got.Payload == nil) != (sent.Payload == nil):
		return fmt.Errorf("payload present %v, sent %v", got.Payload != nil, sent.Payload != nil)
	}
	if sent.Payload != nil {
		if got.Payload.Rows != sent.Payload.Rows || got.Payload.Cols != sent.Payload.Cols {
			return fmt.Errorf("payload %dx%d, sent %dx%d", got.Payload.Rows, got.Payload.Cols, sent.Payload.Rows, sent.Payload.Cols)
		}
		for i, v := range sent.Payload.Data {
			if math.Float64bits(got.Payload.Data[i]) != math.Float64bits(v) {
				return fmt.Errorf("payload value %d is %v, sent %v", i, got.Payload.Data[i], v)
			}
		}
	}
	return nil
}

// TestWireSizeExactOverTCP is the measured-equals-counted check: for every
// kind, body and stamp, with codec bodies in each of the three forms, over a
// loopback hub, the bytes the hub and the peers wrote to their sockets are
// exactly the sum of the envelopes' WireSize, and the frame appendFrame
// builds is WireSize long. Hellos open the streams and count as
// bytes but not as messages or under any kind; everything arrives as it
// was sent.
func TestWireSizeExactOverTCP(t *testing.T) {
	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	var wantBytes, wantMsgs, hellos int64
	peers := map[string]*TCPPeer{}
	for _, name := range []string{"c0", "c1"} {
		p, err := DialHub(name, hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[name] = p
		hello := (&Envelope{From: name, Kind: kindHello}).WireSize()
		if st := p.Stats(); st.Bytes != hello || st.BytesByDir[name+"->hub"] != hello || st.Messages != 0 || len(st.ByKind) != 0 {
			t.Fatalf("%s after its hello: %+v, want %d bytes and no message", name, st, hello)
		}
		wantBytes += hello
		hellos += hello
	}
	c0, c1 := peers["c0"], peers["c1"]

	// hop sends e from its own endpoint and books what one socket write of
	// it must cost.
	hop := func(e *Envelope) {
		t.Helper()
		frame, err := appendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(frame)) != e.WireSize() || int64(binary.LittleEndian.Uint32(frame)) != e.WireSize() {
			t.Fatalf("%s: frame is %d bytes with prefix %d, WireSize %d", e.Kind, len(frame), binary.LittleEndian.Uint32(frame), e.WireSize())
		}
		wantBytes += e.WireSize()
		wantMsgs++
		send := hub.Send
		if p := peers[e.From]; p != nil {
			send = p.Send
		}
		if err := send(e); err != nil {
			t.Fatal(err)
		}
	}
	check := func(sent, got *Envelope, err error) {
		t.Helper()
		if err == nil {
			err = sameEnvelope(sent, got)
		}
		if err != nil {
			t.Fatalf("%s %s->%s: %v", sent.Kind, sent.From, sent.To, err)
		}
	}

	// Five payloads of 130 rows (a two-byte dimension varint): random bit
	// patterns with none, then 100 distinct rows repeated, go dense and as a
	// plain row dictionary under f64; normals code their exponent bytes,
	// four distinct rows and all-equal rows code their dictionary's index.
	// A native payload is always dense.
	rng := rand.New(rand.NewSource(25))
	randomBits := func(rows int) *tensor.Matrix {
		m := tensor.New(rows, 3)
		for i := range m.Data {
			m.Data[i] = math.Float64frombits(rng.Uint64() &^ (1 << 62)) // finite
		}
		return m
	}
	withRepeats := func(m *tensor.Matrix, distinct int) *tensor.Matrix {
		for r := distinct; r < m.Rows; r++ {
			copy(m.Row(r), m.Row(r%distinct))
		}
		return m
	}
	payloads := []*tensor.Matrix{
		randomBits(130), withRepeats(randomBits(130), 100),
		tensor.New(130, 3).Randn(rng, 1), withRepeats(tensor.New(130, 3).Randn(rng, 1), 4), tensor.New(130, 3),
	}
	f64Forms := []string{"dense", "dictionary", "coded", "coded", "coded"}
	for p, m := range payloads {
		blob, _, err := codec.Encode(codec.F64, m)
		if err != nil {
			t.Fatal(err)
		}
		form := "dictionary"
		switch {
		case len(blob) == codec.F64.EncodedSize(m.Rows, m.Cols):
			form = "dense"
		case blob[0] == 0:
			form = "coded"
		}
		if form != f64Forms[p] {
			t.Fatalf("payload %d: f64 body is %s (%d bytes), want %s", p, form, len(blob), f64Forms[p])
		}
		for _, kind := range kindTable[1:] {
			if kind == "" || kind == kindHello || kind == kindPeerDown {
				continue // retired code, stream opener and hub-injected notice: below
			}
			for _, body := range frameBodies {
				for _, stamp := range frameStamps {
					up := buildEnvelope(t, "c0", "coord", kind, body, stamp, m)
					hop(up)
					got, err := hub.Recv("coord")
					check(up, got, err)

					down := buildEnvelope(t, "coord", "c1", kind, body, stamp, m)
					hop(down)
					got, err = c1.Recv("c1")
					check(down, got, err)
				}
			}
		}
	}
	// Control frames have no body.
	last := &Envelope{From: "c0", To: "coord", Kind: KindSynthReq}
	hop(last)
	got, err := hub.Recv("coord")
	check(last, got, err)
	if frame, err := appendFrame(nil, &Envelope{From: "c1", To: "coord", Kind: kindPeerDown}); err != nil || len(frame) != frameMin+2+5 {
		t.Fatalf("peer-down frame: %d bytes, %v", len(frame), err)
	}

	var total, msgs, byKind, byDir int64
	for _, st := range []Stats{hub.Stats(), c0.Stats(), c1.Stats()} {
		total += st.Bytes
		msgs += st.Messages
		for _, b := range st.ByKind {
			byKind += b
		}
		for _, b := range st.BytesByDir {
			byDir += b
		}
	}
	if total != wantBytes || byDir != wantBytes {
		t.Fatalf("sockets carried %d bytes (%d by direction), the envelopes' WireSize sums to %d", total, byDir, wantBytes)
	}
	if msgs != wantMsgs || byKind != wantBytes-hellos {
		t.Fatalf("%d messages, %d bytes by kind; want %d, %d", msgs, byKind, wantMsgs, wantBytes-hellos)
	}
}

// goldenFrames pins the layout: one envelope per body kind, with the hex of
// its frame. A change here is a wire-format change — append to kindTable and
// the codec ids, never renumber.
var goldenFrames = []struct {
	name string
	env  *Envelope
	hex  string
}{
	{
		name: "control",
		env:  &Envelope{From: "c0", To: "coord", Kind: KindSynthReq},
		hex: "1a000000" + "00" + "02" + "026330" + "05636f6f7264" + "00" + "00" + "00" +
			"0000000000000000",
	},
	{
		name: "native",
		env: &Envelope{From: "coord", To: "c1", Kind: KindSynthLatent, Flow: 0x0000000200000029,
			Payload: tensor.FromSlice(1, 2, []float64{1, -2})},
		hex: "2a000000" + "04" + "03" + "05636f6f7264" + "026331" + "01" + "01" + "02" +
			"2900000002000000" +
			"000000000000f03f" + "00000000000000c0",
	},
	{
		name: "f32 sequenced",
		env: &Envelope{From: "c0", To: "coord", Kind: KindActivation, Seq: 5, Sum: 0x1122334455667788,
			Codec: codec.F32, Rows: 2, Cols: 1, Blob: []byte{0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0}},
		hex: "32000000" + "01" + "04" + "026330" + "05636f6f7264" + "02" + "02" + "01" +
			"0000000000000000" + "0500000000000000" + "8877665544332211" +
			"0000803f" + "000000c0",
	},
	{
		name: "f64 row dictionary",
		env: &Envelope{From: "c0", To: "coord", Kind: KindLatents,
			Codec: codec.F64, Rows: 3, Cols: 1, Blob: []byte{
				0x02,
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0x3f,
				0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40,
				0x00, 0x00, 0x01}},
		hex: "2e000000" + "00" + "01" + "026330" + "05636f6f7264" + "01" + "03" + "01" +
			"0000000000000000" +
			"02" + "000000000000f03f" + "0000000000000040" + "000001",
	},
	{
		// The coded f32 dictionary of 1, 2, 1, 2, … (codec's TestCodedGolden).
		name: "f32 coded dictionary",
		env: &Envelope{From: "c0", To: "coord", Kind: KindLatents,
			Codec: codec.F32, Rows: 16, Cols: 1, Blob: []byte{
				0x00, 0x02, 0x10,
				0x00, 0x00, 0x00, 0x00, 0x80, 0x00, 0x3f, 0x40,
				0x11, 0xaf, 0x0f, 0xaa, 0xaa}},
		hex: "2a000000" + "00" + "01" + "026330" + "05636f6f7264" + "02" + "10" + "01" +
			"0000000000000000" +
			"000210" + "0000000080003f40" + "11af0f" + "aaaa",
	},
	{
		name: "q8 wide",
		env: &Envelope{From: "c0", To: "coord", Kind: KindLatents,
			Codec: codec.Q8, Rows: 200, Cols: 0, Blob: nil},
		hex: "1b000000" + "00" + "01" + "026330" + "05636f6f7264" + "03" + "c801" + "00" +
			"0000000000000000",
	},
}

func TestFrameGolden(t *testing.T) {
	for _, g := range goldenFrames {
		frame, err := appendFrame(nil, g.env)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if got := hex.EncodeToString(frame); got != g.hex {
			t.Errorf("%s: frame\n  %s\nwant\n  %s", g.name, got, g.hex)
		}
		want, _ := hex.DecodeString(g.hex)
		got, err := readFrame(bytes.NewReader(want))
		if err == nil {
			err = sameEnvelope(g.env, got)
		}
		if err != nil {
			t.Errorf("%s: decoding the pinned bytes: %v", g.name, err)
		}
	}
}

// randomEnvelope draws from everything a frame can carry: any kind of the
// table, names of any length, every body, every stamp.
func randomEnvelope(t testing.TB, rng *rand.Rand) *Envelope {
	name := func() string {
		b := make([]byte, rng.Intn(256)>>uint(rng.Intn(8)))
		rng.Read(b)
		return string(b)
	}
	var kind Kind
	for kind == "" { // a retired code carries no kind
		kind = kindTable[1+rng.Intn(len(kindTable)-1)]
	}
	if rng.Intn(4) == 0 {
		e := &Envelope{From: name(), To: name(), Kind: kind, Flow: rng.Uint64() >> uint(rng.Intn(64))}
		if rng.Intn(2) == 0 {
			e.Seq, e.Sum = uint64(rng.Intn(3)), rng.Uint64()>>uint(rng.Intn(64))
		}
		return e
	}
	m := tensor.New(rng.Intn(200), rng.Intn(6)).Randn(rng, 3)
	return buildEnvelope(t, name(), name(), kind, frameBodies[rng.Intn(len(frameBodies))], frameStamps[rng.Intn(len(frameStamps))], m)
}

// TestFrameRoundTrip: any envelope the format can carry comes back from a
// stream of frames field for field and bit for bit, each frame is WireSize
// long, and the stream ends with a bare io.EOF.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2510))
	var stream []byte
	var sent []*Envelope
	for i := 0; i < 400; i++ {
		e := randomEnvelope(t, rng)
		before := len(stream)
		var err error
		if stream, err = appendFrame(stream, e); err != nil {
			t.Fatalf("envelope %d: %v", i, err)
		}
		if int64(len(stream)-before) != e.WireSize() {
			t.Fatalf("envelope %d: frame is %d bytes, WireSize %d", i, len(stream)-before, e.WireSize())
		}
		sent = append(sent, e)
	}
	r := bufio.NewReaderSize(bytes.NewReader(stream), 16) // a tiny buffer, so frames straddle reads
	for i, e := range sent {
		got, err := readFrame(r)
		if err == nil {
			err = sameEnvelope(e, got)
		}
		if err != nil {
			t.Fatalf("envelope %d (%s, %d B): %v", i, e.Kind, e.WireSize(), err)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestAppendFrameRefuses: what the format cannot carry is an error at the
// sender, not bytes a receiver has to reject.
func TestAppendFrameRefuses(t *testing.T) {
	long := strings.Repeat("x", 256)
	for name, e := range map[string]*Envelope{
		"unknown kind":        {From: "a", To: "b", Kind: "garbage"},
		"long sender":         {From: long, To: "b", Kind: KindLatents},
		"long recipient":      {From: "a", To: long, Kind: KindLatents},
		"blob without codec":  {From: "a", To: "b", Kind: KindLatents, Blob: []byte("{}")},
		"payload beside blob": {From: "a", To: "b", Kind: KindLatents, Payload: tensor.New(1, 1), Codec: codec.F64, Rows: 1, Cols: 1, Blob: make([]byte, 8)},
	} {
		if frame, err := appendFrame(nil, e); err == nil {
			t.Errorf("%s: framed into %d bytes, want an error", name, len(frame))
		}
	}
}

// frameMutants derives hostile inputs from the golden frames: truncated at
// every offset, one bit flipped in every byte, the native flag toggled (a
// native body must be dense f64), and the length prefix and the dimension
// fields overwritten with boundary values.
func frameMutants() [][]byte {
	var out [][]byte
	for _, g := range goldenFrames {
		frame, _ := hex.DecodeString(g.hex)
		for n := 0; n <= len(frame); n++ {
			out = append(out, append([]byte(nil), frame[:n]...))
		}
		native := append([]byte(nil), frame...)
		native[4] ^= frameNative
		out = append(out, native)
		for i := range frame {
			flipped := append([]byte(nil), frame...)
			flipped[i] ^= 1 << (i % 8)
			out = append(out, flipped)
		}
		dims := 4 + 1 + 1 + 1 + len(g.env.From) + 1 + len(g.env.To) + 1 // offset of the rows varint
		_, rows, cols, _ := g.env.body()
		rowsLen, colsLen := uvarintLen(uint64(rows)), uvarintLen(uint64(cols))
		for _, v := range []uint64{0, 1 << 31, 1<<32 - 1, 1 << 63} {
			prefixed := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(prefixed, uint32(v))
			out = append(out, prefixed)
			rows := append(append([]byte(nil), frame[:dims]...), binary.AppendUvarint(nil, v)...)
			out = append(out, append(rows, frame[dims+rowsLen:]...))
			cols := append(append([]byte(nil), frame[:dims+rowsLen]...), binary.AppendUvarint(nil, v)...)
			out = append(out, append(cols, frame[dims+rowsLen+colsLen:]...))
		}
	}
	return out
}

// checkFrameDecode is the decoder's contract on arbitrary bytes: it never
// panics; an empty stream is io.EOF; anything else that is not a frame is an
// ErrCorruptPayload; and what it accepts re-encodes to exactly the bytes it
// consumed, so no two byte strings mean the same envelope.
func checkFrameDecode(t testing.TB, data []byte) {
	t.Helper()
	e, err := readFrame(bytes.NewReader(data))
	switch {
	case err == io.EOF:
		if len(data) != 0 {
			t.Fatalf("io.EOF on %d bytes %x", len(data), data)
		}
	case err != nil:
		if !errors.Is(err, ErrCorruptPayload) {
			t.Fatalf("error %v on %x does not wrap ErrCorruptPayload", err, data)
		}
	default:
		frame, err := appendFrame(nil, e)
		if err != nil {
			t.Fatalf("accepted %x as %+v, which cannot be framed: %v", data, e, err)
		}
		if int64(len(frame)) != e.WireSize() || len(frame) > len(data) || !bytes.Equal(frame, data[:len(frame)]) {
			t.Fatalf("accepted %x, which re-encodes to %x", data, frame)
		}
	}
}

// retiredKindFrame is the golden control frame with its kind byte set to
// code 8, which kindTable keeps empty: a reader must refuse it.
func retiredKindFrame() []byte {
	frame, _ := hex.DecodeString(goldenFrames[0].hex)
	frame[5] = 8
	return frame
}

// retiredFlagFrame is the golden control frame with flag bit 1 set, which
// once marked a retransmitted attempt: a reader must refuse it.
func retiredFlagFrame() []byte {
	frame, _ := hex.DecodeString(goldenFrames[0].hex)
	frame[4] |= 2
	return frame
}

// FuzzFrameDecode holds readFrame to checkFrameDecode. Its seeds are the
// mutants above and a frame under the retired kind code, which a plain
// `go test` runs too.
func FuzzFrameDecode(f *testing.F) {
	for _, data := range frameMutants() {
		f.Add(data)
	}
	f.Add(retiredKindFrame())
	f.Fuzz(func(t *testing.T, data []byte) { checkFrameDecode(t, data) })
}

// TestReadFrameAllocatesWhatArrived: a length prefix or a dimension field is
// a claim, not a budget. A header that promises MaxFrame bytes, or a
// 2³⁰-value tensor, over a stream that holds a few dozen must cost about
// those few dozen bytes of memory, not the promise.
func TestReadFrameAllocatesWhatArrived(t *testing.T) {
	huge := binary.LittleEndian.AppendUint32(nil, MaxFrame)
	huge = append(huge, make([]byte, 100)...)

	dims, err := appendFrame(nil, &Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: tensor.New(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	at := 4 + 1 + 1 + 3 + 6 + 1
	dims = append(append(append([]byte(nil), dims[:at]...), binary.AppendUvarint(nil, 1<<30)...), dims[at+1:]...)
	binary.LittleEndian.PutUint32(dims, uint32(len(dims)))

	for name, data := range map[string][]byte{"length prefix": huge, "row count": dims} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readFrame(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorruptPayload) {
			t.Fatalf("%s: %v, want ErrCorruptPayload", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4*frameChunk {
			t.Fatalf("%s: reading %d bytes allocated %d", name, len(data), got)
		}
	}
}

// TestTCPHubCloseWaits: Close returns only once the accept loop and every
// connection goroutine have exited — with a peer mid-stream, with a
// connection that never said hello, and with a route blocked on an inbox
// nobody is draining — and the goroutine count is back where it started.
func TestTCPHubCloseWaits(t *testing.T) {
	start := runtime.NumGoroutine()
	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peer, err := DialHub("c0", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	mute, err := net.Dial("tcp", hub.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mute.Close()
	flooded := make(chan error, 1)
	go func() {
		// More than the inbox holds, never received: the route blocks.
		var err error
		for i := 0; i < cap(hub.inbox)+64 && err == nil; i++ {
			err = peer.Send(&Envelope{From: "c0", To: "coord", Kind: KindSynthReq})
		}
		flooded <- err
	}()
	if err := <-flooded; err != nil {
		t.Fatal(err)
	}
	for len(hub.inbox) < cap(hub.inbox) {
		time.Sleep(time.Millisecond)
	}

	closed := make(chan error, 1)
	go func() { closed <- hub.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("hub.Close did not return")
	}
	if err := hub.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The flooding goroutine and Close's own have returned; the scheduler may
	// need a moment to retire them.
	for tries := 0; runtime.NumGoroutine() > start; tries++ {
		if tries == 5000 {
			t.Fatalf("%d goroutines after Close, %d before the hub started", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTCPHubCountsCorruptFrame: a peer whose stream stops being frames is
// dropped, and the recorder says why before it says the peer is down. So is
// one whose stream carries a frame it may not: a stream speaks only for the
// name it said hello with, only to the hub, and only in application kinds. No refused frame
// reaches the hub's inbox, and a second hello for a registered name leaves
// the live registration in place. A hello under a name the hub has reported
// dead is refused the same way, and the name stays dead: a dead peer is dead
// for the rest of the hub's life.
func TestTCPHubCountsCorruptFrame(t *testing.T) {
	frame := func(e *Envelope) []byte {
		b, err := appendFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, tc := range []struct {
		name   string
		after  []byte // what the stream writes after its hello
		second bool   // a peer named c0 is registered before the stream dials
		dead   bool   // a peer named c0 registered and died before the stream dials
	}{
		{name: "not a frame", after: binary.LittleEndian.AppendUint32(nil, 1<<31)}, // a length no frame may have
		{name: "another sender", after: frame(&Envelope{From: "c1", To: "coord", Kind: KindSynthReq})},
		{name: "another recipient", after: frame(&Envelope{From: "c0", To: "c1", Kind: KindSynthReq})},
		{name: "mid-stream hello", after: frame(&Envelope{From: "c0", Kind: kindHello})},
		{name: "mid-stream peer-down", after: frame(&Envelope{From: "c0", To: "coord", Kind: kindPeerDown})},
		{name: "retired kind code", after: retiredKindFrame()},
		{name: "retired flag bit", after: retiredFlagFrame()},
		{name: "hello for a registered name", second: true},
		{name: "re-hello after death", dead: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub, err := NewTCPHub("coord", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			rec := obs.NewRecorder()
			flight := obs.NewFlightRecorder(0)
			rec.SetFlight(flight)
			hub.SetRecorder(rec)

			var live *TCPPeer
			if tc.second {
				if live, err = DialHub("c0", hub.Addr()); err != nil {
					t.Fatal(err)
				}
				defer live.Close()
				for len(hub.Peers()) == 0 {
					time.Sleep(time.Millisecond)
				}
			}
			if tc.dead {
				gone, err := DialHub("c0", hub.Addr())
				if err != nil {
					t.Fatal(err)
				}
				gone.Close()
				var pd *PeerDeadError
				if _, err := hub.Recv("coord"); !errors.As(err, &pd) || pd.Peer != "c0" {
					t.Fatalf("hub.Recv after the first c0 closed: %v, want c0 dead", err)
				}
			}
			conn, err := net.Dial("tcp", hub.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Write(append(frame(&Envelope{From: "c0", Kind: kindHello}), tc.after...)); err != nil {
				t.Fatal(err)
			}

			got := make(chan error, 1)
			go func() {
				e, err := hub.Recv("coord")
				if err == nil {
					err = fmt.Errorf("delivered %s from %q", e.Kind, e.From)
				}
				got <- err
			}()
			var pd *PeerDeadError
			select {
			case err := <-got:
				if !errors.As(err, &pd) || pd.Peer != "c0" {
					t.Fatalf("hub.Recv: %v, want c0 dead", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("the stream was not refused: no peer-down within 5 s")
			}
			if n := rec.Snapshot().Counters["bus_corrupt_total_frame"]; n != 1 {
				t.Fatalf("bus_corrupt_total_frame = %d, want 1", n)
			}
			var ops []string
			for _, en := range flight.Entries() {
				ops = append(ops, en.Op)
			}
			if got := strings.Join(ops, " "); !strings.Contains(got, "corrupt peer-down") {
				t.Fatalf("flight recorder ops %q, want corrupt before peer-down", got)
			}
			if live != nil {
				if err := live.Send(&Envelope{From: "c0", To: "coord", Kind: KindSynthReq}); err != nil {
					t.Fatal(err)
				}
				if e, err := hub.Recv("coord"); err != nil || e.From != "c0" || e.Kind != KindSynthReq {
					t.Fatalf("the live c0 after the refused hello: %v, %v", e, err)
				}
			}
			if tc.dead {
				if err := hub.Send(&Envelope{From: "coord", To: "c0", Kind: KindSynthLatent}); !errors.As(err, &pd) || pd.Peer != "c0" {
					t.Fatalf("hub.Send to c0 after the refused re-hello: %v, want c0 dead", err)
				}
			}
		})
	}
}

// TestTCPHubCloseWakesRecv: Close wakes a Recv blocked on an empty hub and a
// self-addressed Send blocked on a full inbox, as LocalBus's Close wakes its
// receivers: both return an error wrapping ErrBusClosed, as does a Send to a
// peer after Close, and no goroutine is left behind.
func TestTCPHubCloseWakesRecv(t *testing.T) {
	start := runtime.NumGoroutine()
	idle, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	full, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := &Envelope{From: "coord", To: "coord", Kind: KindSynthReq}
	for i := 0; i < cap(full.inbox); i++ {
		if err := full.Send(self); err != nil {
			t.Fatal(err)
		}
	}
	recv, send := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := idle.Recv("coord")
		recv <- err
	}()
	go func() { send <- full.Send(self) }()
	time.Sleep(20 * time.Millisecond) // let both block

	idle.Close()
	full.Close()
	for name, ch := range map[string]chan error{"Recv on an empty hub": recv, "Send into a full inbox": send} {
		select {
		case err := <-ch:
			if !errors.Is(err, ErrBusClosed) {
				t.Fatalf("%s after Close: %v, want ErrBusClosed", name, err)
			}
		case <-time.After(time.Second):
			t.Fatalf("%s still blocked 1 s after Close", name)
		}
	}
	if err := idle.Send(&Envelope{From: "coord", To: "c0", Kind: KindSynthLatent}); !errors.Is(err, ErrBusClosed) {
		t.Fatalf("Send to a peer after Close: %v, want ErrBusClosed", err)
	}
	for tries := 0; runtime.NumGoroutine() > start; tries++ {
		if tries == 5000 {
			t.Fatalf("%d goroutines after Close, %d before the hubs started", runtime.NumGoroutine(), start)
		}
		time.Sleep(time.Millisecond)
	}
}
