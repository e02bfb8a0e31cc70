//silofuse:bitwise-ok checkpoint tests pin byte-equal re-saves with exact comparisons
package silo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"silofuse/internal/autoencoder"
	"silofuse/internal/datagen"
	"silofuse/internal/diffusion"
	"silofuse/internal/nn"
	"silofuse/internal/tensor"
)

// checkpointFixture holds one small trained model of each family: two fits
// of the stacked pipeline, which persist themselves and load any byte string,
// and the E2E and VFL models, whose client indexes TestClientIndex reads.
type checkpointFixture struct {
	// stacked are the stacked fits, the first with latent whitening and the
	// second without, so both shapes of SaveState's stream are covered.
	stacked [2]*Pipeline
	e2e     *E2EPipeline
	vfl     *VFLClassifier
	// budget is the most a valid stream makes a loader allocate: the fixed
	// buffer, record names, and the backbone built from the pipeline's own
	// shapes.
	budget uint64
}

func allocatedBy(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// newCheckpointFixture trains the models and returns them with the valid
// streams every mutant is derived from: SaveState's stream of each stacked
// fit, in the order of fx.stacked.
func newCheckpointFixture(t testing.TB) (*checkpointFixture, [][]byte) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	spec, err := datagen.ByName("loan")
	must(err)
	tb := spec.Generate(40, 21)
	cfg := smallConfig(2)
	cfg.AE = autoencoder.Config{Hidden: 8, Embed: 4, LR: 2e-3}
	cfg.Diff = diffusion.ModelConfig{Hidden: 8, Depth: 1, TimeDim: 4, T: 20, LR: 2e-3}
	cfg.AEIters, cfg.DiffIters, cfg.Batch = 2, 2, 16

	fx := &checkpointFixture{}
	streams := make([][]byte, len(fx.stacked))
	for i := range fx.stacked {
		cfg.DisableLatentWhitening = i == 1
		fx.stacked[i], err = NewPipeline(NewLocalBus(), tb, cfg)
		must(err)
		_, _, err = fx.stacked[i].TrainStacked()
		must(err)
		var buf bytes.Buffer
		must(fx.stacked[i].SaveState(&buf))
		streams[i] = buf.Bytes()
	}
	cfg.DisableLatentWhitening = false

	fx.e2e, err = NewE2EPipeline(NewLocalBus(), tb, cfg)
	must(err)
	_, err = fx.e2e.Train(2)
	must(err)

	silos, labels, vcfg := chaosVFLSetup(t)
	fx.vfl, err = NewVFLClassifier(silos, vcfg)
	must(err)
	_, err = fx.vfl.Train(NewLocalBus(), silos, labels, 2, 32)
	must(err)

	for i, s := range streams {
		s := s
		fx.budget = max(fx.budget, allocatedBy(func() { _, err = load(fx.stacked[i], s) }))
		if err != nil {
			t.Fatalf("valid stream %d of %d bytes: %v", i, len(s), err)
		}
	}
	return fx, streams
}

// load hands data to p's loader and, when it loads, returns what p re-saves.
func load(p *Pipeline, data []byte) ([]byte, error) {
	if err := p.LoadState(bytes.NewReader(data)); err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err := p.SaveState(&out)
	return out.Bytes(), err
}

// retiredKinds are the header kind bytes of the E2E and VFL checkpoints,
// which no loader reads any more.
var retiredKinds = []byte{'E', 'V'}

// withKind returns a copy of stream s whose header names kind.
func withKind(s []byte, kind byte) []byte {
	m := append([]byte(nil), s...)
	m[5] = kind
	return m
}

// check is the loader's contract on arbitrary bytes, held by both stacked
// fits: never a panic; a refusal wraps nn.ErrCheckpoint; nothing is allocated
// beyond what a valid stream costs, whatever the stream claims; and what
// loads re-saves to exactly the bytes it was read from, so no two byte
// strings mean the same checkpoint.
func (fx *checkpointFixture) check(t *testing.T, data []byte) {
	t.Helper()
	for i, p := range fx.stacked {
		var resaved []byte
		var err error
		if got := allocatedBy(func() { resaved, err = load(p, data) }); got > 2*fx.budget+64<<10 {
			t.Fatalf("fit %d loading %d bytes allocated %d, a valid stream at most %d", i, len(data), got, fx.budget)
		}
		switch {
		case err != nil && !errors.Is(err, nn.ErrCheckpoint):
			t.Fatalf("fit %d: error %v on %d bytes does not wrap nn.ErrCheckpoint", i, err, len(data))
		case err == nil && !bytes.Equal(resaved, data):
			t.Fatalf("fit %d accepted %d bytes that re-save to %d different ones", i, len(data), len(resaved))
		}
	}
}

// recordEnds parses a valid stream independently of the loader and returns
// the offset after the header and after every record.
func recordEnds(t testing.TB, s []byte) []int {
	t.Helper()
	ends := []int{6}
	for off := 6; off < len(s); ends = append(ends, off) {
		name := int(binary.LittleEndian.Uint16(s[off:]))
		rows := int(binary.LittleEndian.Uint32(s[off+2+name:]))
		cols := int(binary.LittleEndian.Uint32(s[off+6+name:]))
		off += 2 + name + 8 + 8*rows*cols
	}
	if ends[len(ends)-1] != len(s) {
		t.Fatalf("records end at %d of a %d-byte stream", ends[len(ends)-1], len(s))
	}
	return ends
}

// checkpointMutants derives hostile inputs from the valid streams: a byte
// appended; cut at every record boundary and one byte past it; one bit
// flipped in every byte of the stream header and of the first record's
// header, and for each later record in one byte of its header (which one
// moves with the record, so every field is hit many times over) and in its
// first value; and every bit of the two preamble records' four values, the
// one preamble LoadState accepts. About two and a half thousand seeds: the
// fuzzer replays them all for coverage before it mutates anything, and
// `make fuzz-smoke` gives it 10 s.
func checkpointMutants(t testing.TB, streams [][]byte) [][]byte {
	t.Helper()
	var out [][]byte
	for _, s := range streams {
		out = append(out, s, append(append([]byte(nil), s...), 0))
		flipBit := func(i, bit int) {
			m := append([]byte(nil), s...)
			m[i] ^= 1 << bit
			out = append(out, m)
		}
		flip := func(i int) { flipBit(i, i%8) }
		for i := 0; i < 6; i++ {
			flip(i)
		}
		ends := recordEnds(t, s)
		for k, at := range ends[:len(ends)-1] {
			out = append(out, s[:at], s[:at+1])
			header := 2 + int(binary.LittleEndian.Uint16(s[at:])) + 8
			for i := 0; k == 0 && i < header; i++ {
				flip(at + i)
			}
			flip(at + k%header)
			if at+header < ends[k+1] {
				flip(at + header)
			}
			for b := 0; k < 2 && b < 8*(ends[k+1]-at-header); b++ {
				flipBit(at+header+b/8, b%8)
			}
		}
	}
	return out
}

// FuzzCheckpointLoad holds the stacked checkpoint loader to
// checkpointFixture.check. Its seeds are the mutants above of SaveState's
// stream with whitening on and off and of their copies under the retired E2E
// and VFL kind bytes, which a plain `go test` runs too.
func FuzzCheckpointLoad(f *testing.F) {
	fx, streams := newCheckpointFixture(f)
	for _, s := range streams {
		for _, kind := range retiredKinds {
			streams = append(streams, withKind(s, kind))
		}
	}
	for _, data := range checkpointMutants(f, streams) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { fx.check(t, data) })
}

// TestCheckpointKindsDoNotCross: SaveState's stream loads into the fit that
// wrote it and is refused by the fit with the other whitening setting, and
// the same stream under a retired E2E or VFL kind byte is refused by both.
func TestCheckpointKindsDoNotCross(t *testing.T) {
	fx, streams := newCheckpointFixture(t)
	for i, s := range streams {
		for j, p := range fx.stacked {
			if err := p.LoadState(bytes.NewReader(s)); i == j && err != nil || i != j && !errors.Is(err, nn.ErrCheckpoint) {
				t.Errorf("stream %d into fit %d: %v", i, j, err)
			}
			for _, kind := range retiredKinds {
				if err := p.LoadState(bytes.NewReader(withKind(s, kind))); !errors.Is(err, nn.ErrCheckpoint) {
					t.Errorf("stream %d of the retired kind %c into fit %d: %v", i, kind, j, err)
				}
			}
		}
	}
}

// TestLoadStateRefusesMidRunStreams: LoadState accepts only the preamble
// SaveState writes, phase [3, 0] and loss [0, 0]. The streams a mid-training
// checkpoint used to write — an earlier phase, collected latents, recorded
// losses, a −0 loss — are refused with nn.ErrCheckpoint.
func TestLoadStateRefusesMidRunStreams(t *testing.T) {
	fx, streams := newCheckpointFixture(t)
	p, s := fx.stacked[0], streams[0]
	ends := recordEnds(t, s)
	name := func(at int) string {
		return string(s[at+2 : at+2+int(binary.LittleEndian.Uint16(s[at:]))])
	}
	if name(ends[0]) != "phase" || name(ends[1]) != "loss" {
		t.Fatalf("stream opens with records %q, %q", name(ends[0]), name(ends[1]))
	}
	// set returns a copy of m, a stream laid out as s, with value i of the
	// record at `at` set to v.
	set := func(m []byte, at, i int, v float64) []byte {
		m = append([]byte(nil), m...)
		off := at + 2 + len(name(at)) + 8 + 8*i
		binary.LittleEndian.PutUint64(m[off:], math.Float64bits(v))
		return m
	}
	phase, loss := ends[0], ends[1]

	// The latents record went between the clients' and the scaler's records.
	mean := -1
	for _, at := range ends[:len(ends)-1] {
		if name(at) == "latent.mean" {
			mean = at
		}
	}
	if mean < 0 {
		t.Fatal("no latent.mean record in the whitened stream")
	}
	total := 0
	for _, c := range p.Clients {
		total += c.LatentDim()
	}
	rows := p.Clients[0].Data.Rows()
	latents := binary.LittleEndian.AppendUint16(nil, uint16(len("latents")))
	latents = append(latents, "latents"...)
	latents = binary.LittleEndian.AppendUint32(latents, uint32(rows))
	latents = binary.LittleEndian.AppendUint32(latents, uint32(total))
	latents = append(latents, make([]byte, 8*rows*total)...)
	flagged := set(s, phase, 1, 1)
	withLatents := append(append(append([]byte(nil), flagged[:mean]...), latents...), flagged[mean:]...)

	if err := p.LoadState(bytes.NewReader(s)); err != nil {
		t.Fatalf("SaveState's own stream: %v", err)
	}
	negZero := math.Copysign(0, -1)
	for _, m := range []struct {
		what string
		data []byte
	}{
		{"phase 0", set(s, phase, 0, 0)},
		{"phase 1", set(s, phase, 0, 1)},
		{"phase 2", set(s, phase, 0, 2)},
		{"latents flag 1 with a latents record", withLatents},
		{"nonzero AE loss", set(s, loss, 0, 0.5)},
		{"nonzero diffusion loss", set(s, loss, 1, 0.25)},
		{"-0 AE loss", set(s, loss, 0, negZero)},
		{"-0 diffusion loss", set(s, loss, 1, negZero)},
	} {
		if err := p.LoadState(bytes.NewReader(m.data)); !errors.Is(err, nn.ErrCheckpoint) {
			t.Errorf("%s: %v, want nn.ErrCheckpoint", m.what, err)
		}
	}
}

// TestClientIndex: senders resolve through the map built with the model, and
// anything that is not one of its clients is ErrUnknownSender — fmt.Sscanf
// used to put all of these in slot 0, or index past the slice.
func TestClientIndex(t *testing.T) {
	fx, _ := newCheckpointFixture(t)
	four := clientIndex{"c0": 0, "c1": 1, "c2": 2, "c3": 3}
	for _, c := range []struct {
		index clientIndex
		id    string
		want  int
		ok    bool
	}{
		{four, "c0", 0, true},
		{four, "c3", 3, true},
		{fx.e2e.index, "c1", 1, true},
		{fx.vfl.index, "c1", 1, true},
		{four, "c9", 0, false},
		{fx.e2e.index, "c2", 0, false},
		{fx.vfl.index, "c2", 0, false},
		{four, "coord", 0, false},
		{four, "", 0, false},
		{four, "c", 0, false},
		{four, "c01", 0, false},
		{four, "c1 ", 0, false},
		{four, "x1", 0, false},
	} {
		got, err := c.index.of(c.id)
		if got != c.want || (err == nil) != c.ok || (err != nil && !errors.Is(err, ErrUnknownSender)) {
			t.Errorf("%q: index %d, err %v", c.id, got, err)
		}
	}

	// Through a training step: an activation from a stranger fails the step.
	for _, from := range []string{"coord", "c9", "garbage"} {
		stray := &Envelope{From: from, To: fx.e2e.Coord.ID, Kind: KindActivation, Payload: tensor.New(1, 1)}
		if err := fx.e2e.Bus.Send(stray); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.e2e.Train(1); !errors.Is(err, ErrUnknownSender) {
			t.Errorf("e2e step after an activation from %q: %v", from, err)
		}
		fx.e2e.Bus = NewLocalBus() // the failed step left its clients' messages behind
	}
	silos, labels, _ := chaosVFLSetup(t)
	bus := NewLocalBus()
	if err := bus.Send(&Envelope{From: "c7", To: "coord", Kind: KindActivation, Payload: tensor.New(1, 1)}); err != nil {
		t.Fatal(err)
	}
	if _, err := fx.vfl.Train(bus, silos, labels, 1, 32); !errors.Is(err, ErrUnknownSender) {
		t.Errorf("vfl step after an activation from c7: %v", err)
	}
}
