package silo

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"

	"silofuse/internal/silo/codec"
)

// The wire format. One frame carries one Envelope, and every transport
// charges the frame's length, so socket bytes equal WireSize by
// construction:
//
//	u32   length  little-endian; the whole frame, these four bytes included
//	u8    flags   frameSequenced | frameNative
//	u8    kind    index into kindTable
//	u8+n  From    length byte, then the name
//	u8+n  To
//	u8    codec   codec.ID of the body; 0 means no body
//	uvar  rows    body dimensions (0 without a body)
//	uvar  cols
//	u64   flow    trace context, zero when untraced
//	u64   seq     \ only when frameSequenced is set
//	u64   sum     /
//	...   body    the codec's blob: codec.EncodedSize(rows, cols) bytes
//	              dense, fewer as a row dictionary (package codec)
//
// Three rules keep the accounting honest. The flow id is fixed-width and
// always present, so attaching a recorder moves exactly the bytes an
// untraced run moves. Seq and Sum cost their 16 bytes only on messages the
// resilient layer stamped. A native Payload is written as the f64 codec's
// dense body with frameNative set, which only tells the reader to hand the
// tensor back as Payload: there is one float encoding, and the uncompressed
// reference stays uncompressed. Flag bit 1 (value 2) is retired, as kind
// code 8 is: a frame that sets it is refused.
const (
	frameSequenced = 1 // Seq and Sum follow Flow
	frameNative    = 4 // deliver the f64 body as Envelope.Payload

	frameKnownFlags = frameSequenced | frameNative
)

// MaxFrame caps the length prefix a reader accepts and a writer emits, and
// with it every dimension field and the f64 expansion of a row dictionary;
// the largest frame a run sends (one client's latent upload) is far below it.
const MaxFrame = codec.MaxBytes

// frameFixed is the fixed-width part of every header: the length prefix,
// flags, kind, the two name-length bytes, codec and the flow id. The
// smallest frame adds two one-byte dimensions to it.
const (
	frameFixed = 4 + 1 + 1 + 1 + 1 + 1 + 8
	frameMin   = frameFixed + 2
)

// frameChunk is the first read of a frame's remainder; later reads double.
// A reader therefore never holds more than twice the bytes that arrived
// plus one chunk, whatever the length prefix claims.
const frameChunk = 64 << 10

// The TCP transport's own kinds. kindHello opens every stream, its From
// naming the dialling peer; kindPeerDown is the notice a hub puts in its
// own inbox when a peer's stream ends, From naming the dead peer. A hub
// refuses either one arriving mid-stream (TCPHub.route).
const (
	kindHello    Kind = "hello"
	kindPeerDown Kind = "peer-down"
)

// kindTable is the closed set of kinds a frame can carry; the index is the
// wire code, so entries are only ever appended and a retired code stays
// empty: 8 was a liveness beacon nothing read, and a frame under it is
// refused.
var kindTable = [...]Kind{
	1:  KindLatents,
	2:  KindSynthReq,
	3:  KindSynthLatent,
	4:  KindActivation,
	5:  KindDenoised,
	6:  KindGradUp,
	7:  KindGradDown,
	9:  kindPeerDown,
	10: kindHello,
}

func kindCode(k Kind) (byte, bool) {
	for code := 1; code < len(kindTable); code++ {
		if k != "" && kindTable[code] == k {
			return byte(code), true
		}
	}
	return 0, false
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// body describes the tensor e carries: a native Payload is an f64 body with
// frameNative set, a codec-framed envelope is its Blob as it stands.
func (e *Envelope) body() (id codec.ID, rows, cols, size int) {
	if e.Payload != nil {
		return codec.F64, e.Payload.Rows, e.Payload.Cols, codec.F64.EncodedSize(e.Payload.Rows, e.Payload.Cols)
	}
	return e.Codec, e.Rows, e.Cols, len(e.Blob)
}

func (e *Envelope) sequenced() bool { return e.Seq != 0 || e.Sum != 0 }

// WireSize is the exact length of the frame appendFrame writes for e — the
// number every transport books, in process or on a socket.
func (e *Envelope) WireSize() int64 {
	_, rows, cols, size := e.body()
	n := frameFixed + len(e.From) + len(e.To) + uvarintLen(uint64(rows)) + uvarintLen(uint64(cols)) + size
	if e.sequenced() {
		n += 16
	}
	return int64(n)
}

// appendFrame appends e's frame to dst. It refuses what the format cannot
// carry: a kind outside kindTable, a party name over 255 bytes, a Blob with
// no codec, a Payload beside a codec, a frame over MaxFrame.
func appendFrame(dst []byte, e *Envelope) ([]byte, error) {
	code, ok := kindCode(e.Kind)
	size := e.WireSize()
	switch {
	case !ok:
		return dst, fmt.Errorf("silo: kind %q has no wire code", e.Kind)
	case len(e.From) > 255 || len(e.To) > 255:
		return dst, fmt.Errorf("silo: party name over 255 bytes (%d, %d)", len(e.From), len(e.To))
	case e.Payload != nil && e.Codec != codec.None, e.Codec == codec.None && len(e.Blob) != 0:
		return dst, fmt.Errorf("silo: %s envelope must hold its tensor once, as Payload or as Codec and Blob", e.Kind)
	case size > MaxFrame:
		return dst, fmt.Errorf("silo: %s frame of %d bytes exceeds MaxFrame", e.Kind, size)
	}
	id, rows, cols, _ := e.body()
	sequenced := e.sequenced()
	var flags byte
	if sequenced {
		flags |= frameSequenced
	}
	if e.Payload != nil {
		flags |= frameNative
	}
	dst = slices.Grow(dst, int(size))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, flags, code, byte(len(e.From)))
	dst = append(dst, e.From...)
	dst = append(dst, byte(len(e.To)))
	dst = append(dst, e.To...)
	dst = append(dst, byte(id))
	dst = binary.AppendUvarint(dst, uint64(rows))
	dst = binary.AppendUvarint(dst, uint64(cols))
	dst = binary.LittleEndian.AppendUint64(dst, e.Flow)
	if sequenced {
		dst = binary.LittleEndian.AppendUint64(dst, e.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, e.Sum)
	}
	if e.Payload == nil {
		return append(dst, e.Blob...), nil
	}
	for _, v := range e.Payload.Data {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst, nil
}

// corruptFrame builds the error every malformed frame resolves to.
func corruptFrame(format string, args ...any) error {
	return fmt.Errorf("silo: %s: %w", fmt.Sprintf(format, args...), ErrCorruptPayload)
}

// readFrame reads one frame from r. A stream that ends between frames
// returns io.EOF bare; one that ends inside a frame, or delivers bytes that
// are not a frame, returns an error wrapping ErrCorruptPayload. No
// allocation is sized by a field the frame has not yet backed with bytes:
// the length prefix is capped at MaxFrame and the buffer grows only as the
// bytes arrive, and dimensions are checked against the body before a tensor
// is built.
func readFrame(r io.Reader) (*Envelope, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, frameReadError(err)
	}
	size := binary.LittleEndian.Uint32(prefix[:])
	if size < frameMin || size > MaxFrame {
		return nil, corruptFrame("frame length %d outside [%d, %d]", size, frameMin, MaxFrame)
	}
	want := int(size) - len(prefix)
	buf := make([]byte, 0, min(want, frameChunk))
	for len(buf) < want {
		step := min(want-len(buf), max(len(buf), frameChunk))
		buf = slices.Grow(buf, step)[:len(buf)+step]
		if _, err := io.ReadFull(r, buf[len(buf)-step:]); err != nil {
			return nil, frameReadError(err)
		}
	}
	return decodeFrame(buf)
}

// frameReadError classifies a failed read inside a frame: a stream that
// simply ends is a truncated frame; anything else is the connection's own
// error and passes through.
func frameReadError(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return corruptFrame("truncated frame")
	}
	return fmt.Errorf("silo: read frame: %w", err)
}

// frameCursor walks a frame's header; a read past the end sets short and
// yields zeros, so the caller checks once after the last field.
type frameCursor struct {
	b     []byte
	short bool
}

// take never asks for more than a name's 255 bytes.
func (c *frameCursor) take(n int) []byte {
	if n > len(c.b) {
		c.short, c.b = true, nil
		return make([]byte, n)
	}
	out := c.b[:n]
	c.b = c.b[n:]
	return out
}

func (c *frameCursor) u8() byte    { return c.take(1)[0] }
func (c *frameCursor) u64() uint64 { return binary.LittleEndian.Uint64(c.take(8)) }
func (c *frameCursor) name() string {
	return string(c.take(int(c.u8())))
}

// uvarint also refuses a padded encoding, so every envelope has exactly one
// frame and a frame that decodes re-encodes to the same bytes.
func (c *frameCursor) uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 || n != uvarintLen(v) {
		c.short, c.b = true, nil
		return 0
	}
	c.b = c.b[n:]
	return v
}

// decodeFrame parses a frame's bytes after the length prefix. The returned
// envelope's Blob aliases b.
func decodeFrame(b []byte) (*Envelope, error) {
	c := frameCursor{b: b}
	flags, code := c.u8(), c.u8()
	e := &Envelope{From: c.name(), To: c.name()}
	id := codec.ID(c.u8())
	rows, cols := c.uvarint(), c.uvarint()
	e.Flow = c.u64()
	if flags&frameSequenced != 0 {
		e.Seq, e.Sum = c.u64(), c.u64()
	}
	body := c.b
	switch {
	case c.short:
		return nil, corruptFrame("malformed header in a %d-byte frame", len(b))
	case flags&^frameKnownFlags != 0, flags&frameSequenced != 0 && !e.sequenced():
		return nil, corruptFrame("frame flags %#x", flags)
	case int(code) >= len(kindTable) || kindTable[code] == "":
		return nil, corruptFrame("unknown kind code %d", code)
	case rows > MaxFrame || cols > MaxFrame:
		return nil, corruptFrame("dimensions %dx%d exceed MaxFrame", rows, cols)
	case id > codec.Q8:
		return nil, corruptFrame("unknown codec id %d", id)
	case id == codec.None && (rows != 0 || cols != 0 || len(body) != 0 || flags&frameNative != 0):
		return nil, corruptFrame("frame without a codec declares a %dx%d body of %d bytes", rows, cols, len(body))
	case flags&frameNative != 0 && (id != codec.F64 || uint64(len(body)) != 8*rows*cols):
		return nil, corruptFrame("native payload framed as a %d-byte %s body for %dx%d", len(body), id, rows, cols)
	}
	e.Kind = kindTable[code]
	if id == codec.None {
		return e, nil
	}
	if flags&frameNative != 0 {
		m, err := codec.Decode(id, body, int(rows), int(cols))
		if err != nil {
			return nil, corruptFrame("%v", err)
		}
		e.Payload = m
		return e, nil
	}
	if err := id.CheckSize(len(body), int(rows), int(cols)); err != nil {
		return nil, corruptFrame("%v", err)
	}
	e.Codec, e.Rows, e.Cols, e.Blob = id, int(rows), int(cols), body
	return e, nil
}
