package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
)

// The module's one checkpoint format (layout and rules: DESIGN.md §4). A
// stream is a six-byte header — "SFCK", a version, the kind of model — then
// records and nothing else, all little-endian:
//
//	nameLen u16 | name | rows u32 | cols u32 | rows·cols f64
//
// Weights, latents and scalars (1×n) are all records. A model describes its
// stream once, as calls on a Checkpoint, and that description both saves and
// loads it. Saving streams through one fixed buffer and holds
// no second copy of anything. Loading compares each record's header with the
// one the model just named before reading a data byte, then fills the tensor
// the model already owns: nothing is ever sized by a field of the stream.

// ErrCheckpoint is wrapped by every refusal to load: a wrong header, a record
// other than the one the model expects next, a stream that ends early or
// runs past its last record, a count that is not an integer.
var ErrCheckpoint = errors.New("nn: bad checkpoint")

const (
	checkpointMagic   = "SFCK"
	checkpointVersion = 1
	checkpointBuf     = 8192
	maxRecordName     = 255
	recordHeaderMax   = 2 + maxRecordName + 8
	kindParams        = 'P' // SaveParams' stream: one bare parameter list
)

// checkRecord holds a record about to be saved or expected to
// codec.ID.CheckSize's rules for dimensions: non-negative, the product taken
// in 128 bits, equal to the number of values actually held.
func checkRecord(name string, rows, cols, values int) error {
	hi, n := bits.Mul64(uint64(rows), uint64(cols))
	if len(name) > maxRecordName || rows < 0 || cols < 0 || rows > math.MaxUint32 || cols > math.MaxUint32 || hi != 0 || n != uint64(values) {
		return fmt.Errorf("nn: checkpoint record %q %dx%d over %d values", name, rows, cols, values)
	}
	return nil
}

func appendRecordHeader(b []byte, name string, rows, cols int) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(name)))
	b = append(b, name...)
	b = binary.LittleEndian.AppendUint32(b, uint32(rows))
	return binary.LittleEndian.AppendUint32(b, uint32(cols))
}

// paramRecord names parameter i of a section: the index makes the name
// unique within the section and the order part of what Load checks.
func paramRecord(section string, i int, what string) string {
	return section + "/" + strconv.Itoa(i) + ":" + what
}

// Checkpoint is one stream being saved or loaded. Its methods name the next
// record and the tensor that holds it: a saving Checkpoint writes the tensor
// out, a loading one fills it. They record the first error and do nothing
// after it; Err and Close report it.
type Checkpoint struct {
	w   io.Writer // saving
	r   io.Reader // loading
	err error
	n   int // bytes of buf not yet written
	buf [checkpointBuf]byte
}

// NewCheckpointWriter starts saving a stream of the given kind to w.
func NewCheckpointWriter(w io.Writer, kind byte) *Checkpoint {
	c := &Checkpoint{w: w}
	c.n = len(append(append(c.buf[:0], checkpointMagic...), checkpointVersion, kind))
	return c
}

// NewCheckpointReader starts loading from r, which must hold a stream of the
// given kind.
func NewCheckpointReader(r io.Reader, kind byte) *Checkpoint {
	c := &Checkpoint{r: r}
	want := append(append(c.buf[:0], checkpointMagic...), checkpointVersion, kind)
	if got := c.buf[len(want) : 2*len(want)]; c.fill(got) && !bytes.Equal(got, want) {
		c.err = fmt.Errorf("%w: header % x, want % x", ErrCheckpoint, got, want)
	}
	return c
}

// Loading is for the steps of a description that allocate what a load fills.
func (c *Checkpoint) Loading() bool { return c.r != nil }

// Err is for a description whose next record depends on a value just loaded.
func (c *Checkpoint) Err() error { return c.err }

func (c *Checkpoint) flush() {
	if c.err == nil && c.n > 0 {
		_, c.err = c.w.Write(c.buf[:c.n])
	}
	c.n = 0
}

// fill reads exactly len(b) bytes.
func (c *Checkpoint) fill(b []byte) bool {
	if c.err != nil {
		return false
	}
	if _, err := io.ReadFull(c.r, b); err != nil {
		c.err = fmt.Errorf("%w: read: %w", ErrCheckpoint, err)
	}
	return c.err == nil
}

// Tensor saves or loads the rows×cols record called name held in data.
func (c *Checkpoint) Tensor(name string, rows, cols int, data []float64) {
	if c.err != nil {
		return
	}
	if c.err = checkRecord(name, rows, cols, len(data)); c.err != nil {
		return
	}
	if c.Loading() {
		want := appendRecordHeader(c.buf[:0], name, rows, cols)
		got := c.buf[len(want) : 2*len(want)]
		if c.fill(got) && !bytes.Equal(got, want) {
			c.err = fmt.Errorf("%w: want record %q %dx%d, stream has header %q", ErrCheckpoint, name, rows, cols, got)
		}
		for len(data) > 0 {
			k := min(len(data), len(c.buf)/8)
			if !c.fill(c.buf[:8*k]) {
				return
			}
			for i := range data[:k] {
				data[i] = math.Float64frombits(binary.LittleEndian.Uint64(c.buf[8*i:]))
			}
			data = data[k:]
		}
		return
	}
	if len(c.buf)-c.n < recordHeaderMax {
		c.flush()
	}
	c.n = len(appendRecordHeader(c.buf[:c.n], name, rows, cols))
	for _, v := range data {
		if c.n+8 > len(c.buf) {
			if c.flush(); c.err != nil {
				return
			}
		}
		binary.LittleEndian.PutUint64(c.buf[c.n:], math.Float64bits(v))
		c.n += 8
	}
}

// Ints saves or loads integers as one 1×len(vs) record: whatever a checkpoint
// counts is far below 2⁵³, where float64 is exact. A loaded value is refused
// unless it is the float64 some int saves as, bit for bit (−0 is not).
func (c *Checkpoint) Ints(name string, vs []int) {
	f := make([]float64, len(vs))
	for i, v := range vs {
		f[i] = float64(v)
	}
	c.Tensor(name, 1, len(f), f)
	for i, v := range f {
		if c.err != nil {
			return
		}
		if vs[i] = int(v); math.Float64bits(float64(vs[i])) != math.Float64bits(v) {
			c.err = fmt.Errorf("%w: %s[%d] = %v is not an integer", ErrCheckpoint, name, i, v)
		}
	}
}

// Params saves or loads the values (not the gradients) of ps, in order; on
// load ps must have the stream's names and shapes in the stream's order.
func (c *Checkpoint) Params(section string, ps []*Param) {
	for i, p := range ps {
		c.Tensor(paramRecord(section, i, p.Name), p.Value.Rows, p.Value.Cols, p.Value.Data)
		if c.Loading() {
			p.Changed()
		}
	}
}

// Close returns the stream's first error, after a save has written what is
// still buffered and a load has checked that nothing follows the last record.
func (c *Checkpoint) Close() error {
	if !c.Loading() {
		c.flush()
	} else if c.err == nil {
		if _, err := io.ReadFull(c.r, c.buf[:1]); err == nil {
			c.err = fmt.Errorf("%w: bytes after the last record", ErrCheckpoint)
		} else if err != io.EOF {
			c.err = fmt.Errorf("%w: read: %w", ErrCheckpoint, err)
		}
	}
	return c.err
}

// SaveParams writes the parameter values (not gradients) to w in order.
// LoadParams must be given the same architecture so names and shapes line up.
func SaveParams(w io.Writer, ps []*Param) error {
	c := NewCheckpointWriter(w, kindParams)
	c.Params("params", ps)
	return c.Close()
}

// LoadParams reads values saved by SaveParams into ps.
func LoadParams(r io.Reader, ps []*Param) error {
	c := NewCheckpointReader(r, kindParams)
	c.Params("params", ps)
	return c.Close()
}
