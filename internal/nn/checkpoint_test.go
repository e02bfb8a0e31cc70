//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"silofuse/internal/tensor"
)

func TestSaveLoadParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := NewSequential(NewLinear(rng, 4, 8), &GELU{}, NewLinear(rng, 8, 3))
	dst := NewSequential(NewLinear(rand.New(rand.NewSource(2)), 4, 8), &GELU{}, NewLinear(rand.New(rand.NewSource(2)), 8, 3))

	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, dst.Params()); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 4).Randn(rng, 1)
	a := src.Forward(x, false)
	b := dst.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("loaded model differs from saved model")
		}
	}
}

func TestLoadParamsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewLinear(rng, 4, 8)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	wrong := NewLinear(rng, 4, 9)
	if err := LoadParams(&buf, wrong.Params()); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("shape mismatch returned %v, want ErrCheckpoint", err)
	}
}

func TestLoadParamsCountMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := NewLinear(rng, 2, 2)
	var buf bytes.Buffer
	if err := SaveParams(&buf, src.Params()); err != nil {
		t.Fatal(err)
	}
	two := NewSequential(NewLinear(rng, 2, 2), NewLinear(rng, 2, 2))
	if err := LoadParams(&buf, two.Params()); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("a stream one layer short returned %v, want ErrCheckpoint", err)
	}
	buf.Reset()
	if err := SaveParams(&buf, two.Params()); err != nil {
		t.Fatal(err)
	}
	if err := LoadParams(&buf, src.Params()); !errors.Is(err, ErrCheckpoint) {
		t.Fatalf("a stream one layer long returned %v, want ErrCheckpoint", err)
	}
}

// TestCheckpointGolden pins the layout byte for byte: header, then
// nameLen | name | rows | cols | little-endian float64 bits per record.
func TestCheckpointGolden(t *testing.T) {
	var buf bytes.Buffer
	cw := NewCheckpointWriter(&buf, 'T')
	cw.Ints("n", []int{7})
	cw.Tensor("w", 2, 1, []float64{1, math.Inf(-1)})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	want := "SFCK\x01T" +
		"\x01\x00n\x01\x00\x00\x00\x01\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\x1c\x40" +
		"\x01\x00w\x02\x00\x00\x00\x01\x00\x00\x00" + "\x00\x00\x00\x00\x00\x00\xf0\x3f" + "\x00\x00\x00\x00\x00\x00\xf0\xff"
	if got := buf.String(); got != want {
		t.Fatalf("stream\n%q, want\n%q", got, want)
	}
}

// TestCheckpointReaderRefuses walks the ways a stream can disagree with the
// model reading it. Each is ErrCheckpoint, found before any value of the
// offending record is stored.
func TestCheckpointReaderRefuses(t *testing.T) {
	var good bytes.Buffer
	cw := NewCheckpointWriter(&good, 'T')
	cw.Ints("iter", []int{3})
	cw.Tensor("w", 2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(stream []byte, kind byte, name string, rows, cols int) ([]int, []float64, error) {
		cr := NewCheckpointReader(bytes.NewReader(stream), kind)
		iter, w := []int{-1}, make([]float64, rows*cols)
		cr.Ints("iter", iter)
		cr.Tensor(name, rows, cols, w)
		return iter, w, cr.Close()
	}
	if iter, w, err := read(good.Bytes(), 'T', "w", 2, 3); err != nil || iter[0] != 3 || w[5] != 6 {
		t.Fatalf("good stream: iter %v w %v err %v", iter, w, err)
	}
	flip := func(off int, b byte) []byte {
		s := append([]byte(nil), good.Bytes()...)
		s[off] ^= b
		return s
	}
	count := func(bits uint64) []byte { // the stream with iter's value replaced
		s := append([]byte(nil), good.Bytes()...)
		binary.LittleEndian.PutUint64(s[6+2+4+8:], bits)
		return s
	}
	type refusal struct {
		what       string
		stream     []byte
		kind       byte
		name       string
		rows, cols int
	}
	cases := []refusal{
		{"empty", nil, 'T', "w", 2, 3},
		{"magic", flip(0, 1), 'T', "w", 2, 3},
		{"version", flip(4, 3), 'T', "w", 2, 3},
		{"kind", good.Bytes(), 'U', "w", 2, 3},
		{"name", good.Bytes(), 'T', "v", 2, 3},
		{"longer name", good.Bytes(), 'T', "ww", 2, 3},
		{"transposed", good.Bytes(), 'T', "w", 3, 2},
		{"wider", good.Bytes(), 'T', "w", 2, 4},
		{"narrower", good.Bytes(), 'T', "w", 2, 2},
		{"count 1.5", count(math.Float64bits(1.5)), 'T', "w", 2, 3},
		{"count -0", count(1 << 63), 'T', "w", 2, 3},
		{"count NaN", count(math.Float64bits(math.NaN())), 'T', "w", 2, 3},
		{"count +Inf", count(math.Float64bits(math.Inf(1))), 'T', "w", 2, 3},
		{"trailing byte", append(append([]byte(nil), good.Bytes()...), 0), 'T', "w", 2, 3},
	}
	for n := 0; n < good.Len(); n++ {
		cases = append(cases, refusal{"truncated", good.Bytes()[:n], 'T', "w", 2, 3})
	}
	for _, c := range cases {
		_, w, err := read(c.stream, c.kind, c.name, c.rows, c.cols)
		if !errors.Is(err, ErrCheckpoint) {
			t.Errorf("%s (%d bytes): err = %v, want ErrCheckpoint", c.what, len(c.stream), err)
		}
		if c.what == "truncated" || c.what == "trailing byte" {
			continue // the record itself was as expected; what it held may be stored
		}
		for _, v := range w {
			if v != 0 {
				t.Errorf("%s: stored %v from a refused record", c.what, w)
				break
			}
		}
	}
	// A reader failure that is not an early end is still ErrCheckpoint, and
	// still itself.
	boom := errors.New("boom")
	cr := NewCheckpointReader(io.MultiReader(bytes.NewReader(good.Bytes()[:10]), errReader{boom}), 'T')
	cr.Ints("iter", []int{0})
	if err := cr.Close(); !errors.Is(err, ErrCheckpoint) || !errors.Is(err, boom) {
		t.Errorf("failing reader: %v", err)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// TestCheckpointWriterRefuses: a record whose shape does not describe its
// data, or whose name the header cannot carry, is the writer's error and
// nothing of it reaches the stream.
func TestCheckpointWriterRefuses(t *testing.T) {
	for _, c := range []struct {
		name       string
		rows, cols int
		n          int
	}{
		{"w", 2, 3, 5},
		{"w", -1, -6, 6},
		{"w", 1 << 32, 1 << 32, 0},
		{string(make([]byte, 256)), 1, 1, 1},
	} {
		var buf bytes.Buffer
		cw := NewCheckpointWriter(&buf, 'T')
		cw.Tensor(c.name, c.rows, c.cols, make([]float64, c.n))
		cw.Tensor("after", 1, 1, []float64{1})
		if err := cw.Close(); err == nil || buf.Len() != 0 {
			t.Errorf("%dx%d over %d values named by %d bytes: err %v, %d bytes written", c.rows, c.cols, c.n, len(c.name), err, buf.Len())
		}
	}
	boom := errors.New("boom")
	cw := NewCheckpointWriter(errWriter{boom}, 'T')
	cw.Tensor("w", 1, 4096, make([]float64, 4096))
	if err := cw.Close(); !errors.Is(err, boom) {
		t.Errorf("failing writer: %v", err)
	}
}

type errWriter struct{ err error }

func (e errWriter) Write([]byte) (int, error) { return 0, e.err }

// TestCheckpointStreams pins the property the memory claim rests on, at the
// lowest layer: writing and reading 8 MB of weights allocates the fixed buffer
// and the record names, nothing that grows with the tensors, and reaches w in
// pieces no larger than the buffer.
func TestCheckpointStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src, dst := NewLinear(rng, 1024, 1024), NewLinear(rng, 1024, 1024)
	save := func(w io.Writer) {
		cw := NewCheckpointWriter(w, 'T')
		cw.Params("l", src.Params())
		if err := cw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	var stream bytes.Buffer
	save(&stream)
	allocated := func(f func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		f()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}
	lim := &maxWrite{}
	if got := allocated(func() { save(lim) }); got > 2*checkpointBuf {
		t.Errorf("saving %d bytes allocated %d", stream.Len(), got)
	}
	if lim.max > checkpointBuf || lim.total != stream.Len() {
		t.Errorf("largest write %d of %d bytes, buffer is %d", lim.max, lim.total, checkpointBuf)
	}
	rd := bytes.NewReader(stream.Bytes())
	if got := allocated(func() {
		cr := NewCheckpointReader(rd, 'T')
		cr.Params("l", dst.Params())
		if err := cr.Close(); err != nil {
			t.Fatal(err)
		}
	}); got > 2*checkpointBuf {
		t.Errorf("loading %d bytes allocated %d", stream.Len(), got)
	}
	for i, p := range src.Params() {
		q := dst.Params()[i]
		for j := range p.Value.Data {
			if p.Value.Data[j] != q.Value.Data[j] {
				t.Fatalf("param %d element %d differs after load", i, j)
			}
		}
	}
}

type maxWrite struct{ max, total int }

func (m *maxWrite) Write(p []byte) (int, error) {
	m.max = max(m.max, len(p))
	m.total += len(p)
	return len(p), nil
}
