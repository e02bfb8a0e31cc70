//silofuse:bitwise-ok checkpoint tests pin byte-equal re-saves with exact comparisons
package silo

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"silofuse/internal/autoencoder"
	"silofuse/internal/datagen"
	"silofuse/internal/diffusion"
	"silofuse/internal/nn"
	"silofuse/internal/tensor"
)

// checkpointFixture holds one small trained model of each family: the
// stacked pipeline, which persists itself and loads any byte string, and the
// E2E and VFL models, whose client indexes TestClientIndex reads.
type checkpointFixture struct {
	stacked *Pipeline
	e2e     *E2EPipeline
	vfl     *VFLClassifier
	// budget is the most a valid stream makes the loader allocate: the fixed
	// buffer, record names, and the backbone and latents built from the
	// pipeline's own shapes.
	budget uint64
}

func allocatedBy(f func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}

// newCheckpointFixture trains the three models and returns them with the
// valid streams every mutant is derived from: a stacked checkpoint at each
// phase plus SaveState's.
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
	var streams [][]byte
	save := func(write func(io.Writer) error) {
		t.Helper()
		var buf bytes.Buffer
		must(write(&buf))
		streams = append(streams, buf.Bytes())
	}

	fx.stacked, err = NewPipeline(NewLocalBus(), tb, cfg)
	must(err)
	done := &Checkpoint{}
	_, _, err = fx.stacked.TrainStackedFrom(done)
	must(err)
	for _, ck := range []*Checkpoint{
		{},
		{Phase: PhaseAE, AELoss: done.AELoss},
		{Phase: PhaseLatents, AELoss: done.AELoss, latents: done.latents},
		done,
	} {
		ck := ck
		save(func(w io.Writer) error { return fx.stacked.SaveCheckpoint(w, ck) })
	}
	save(fx.stacked.SaveState)

	fx.e2e, err = NewE2EPipeline(NewLocalBus(), tb, cfg)
	must(err)
	_, err = fx.e2e.Train(2)
	must(err)

	silos, labels, vcfg := chaosVFLSetup(t)
	fx.vfl, err = NewVFLClassifier(silos, vcfg)
	must(err)
	_, err = fx.vfl.Train(NewLocalBus(), silos, labels, 2, 32)
	must(err)

	for _, s := range streams {
		s := s
		fx.budget = max(fx.budget, allocatedBy(func() { _, err = fx.load(s) }))
		if err != nil {
			t.Fatalf("valid %c stream of %d bytes: %v", s[5], len(s), err)
		}
	}
	return fx, streams
}

// load hands data to the stacked loader and, when it loads, returns what the
// pipeline re-saves.
func (fx *checkpointFixture) load(data []byte) ([]byte, error) {
	var out bytes.Buffer
	ck, err := fx.stacked.LoadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	err = fx.stacked.SaveCheckpoint(&out, ck)
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

// check is the loader's contract on arbitrary bytes: never a panic; a refusal
// wraps nn.ErrCheckpoint; nothing is allocated beyond what a valid stream
// costs, whatever the stream claims; and what loads re-saves to exactly the
// bytes it was read from, so no two byte strings mean the same checkpoint.
func (fx *checkpointFixture) check(t *testing.T, data []byte) {
	t.Helper()
	var resaved []byte
	var err error
	if got := allocatedBy(func() { resaved, err = fx.load(data) }); got > 2*fx.budget+64<<10 {
		t.Fatalf("loading %d bytes allocated %d, a valid stream at most %d", len(data), got, fx.budget)
	}
	switch {
	case err != nil && !errors.Is(err, nn.ErrCheckpoint):
		t.Fatalf("error %v on %d bytes does not wrap nn.ErrCheckpoint", err, len(data))
	case err == nil && !bytes.Equal(resaved, data):
		t.Fatalf("accepted %d bytes that re-save to %d different ones", len(data), len(resaved))
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
// first value. About two thousand seeds: the fuzzer replays them all for
// coverage before it mutates anything, and `make fuzz-smoke` gives it 10 s.
func checkpointMutants(t testing.TB, streams [][]byte) [][]byte {
	t.Helper()
	var out [][]byte
	for _, s := range streams {
		out = append(out, s, append(append([]byte(nil), s...), 0))
		flip := func(i int) {
			m := append([]byte(nil), s...)
			m[i] ^= 1 << (i % 8)
			out = append(out, m)
		}
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
		}
	}
	return out
}

// FuzzCheckpointLoad holds the stacked checkpoint loader to
// checkpointFixture.check. Its seeds are the mutants above of every valid
// stream and of its copies under the retired E2E and VFL kind bytes, which a
// plain `go test` runs too.
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

// TestCheckpointKindsDoNotCross: a valid stacked stream loads, the same
// stream under a retired E2E or VFL kind byte is refused, and SaveState's
// stream is loaded by nothing but a mid-training phase.
func TestCheckpointKindsDoNotCross(t *testing.T) {
	fx, streams := newCheckpointFixture(t)
	for _, s := range streams {
		r := func() io.Reader { return bytes.NewReader(s) }
		if _, err := fx.stacked.LoadCheckpoint(r()); s[5] != kindStacked || err != nil {
			t.Errorf("%c stream into the stacked loader: %v", s[5], err)
		}
		for _, kind := range retiredKinds {
			if _, err := fx.stacked.LoadCheckpoint(bytes.NewReader(withKind(s, kind))); !errors.Is(err, nn.ErrCheckpoint) {
				t.Errorf("stream of the retired kind %c into the stacked loader: %v", kind, err)
			}
		}
		ck, _ := fx.stacked.LoadCheckpoint(r())
		if err := fx.stacked.LoadState(r()); ck.Phase == PhaseDiffusion && err != nil || ck.Phase != PhaseDiffusion && !errors.Is(err, nn.ErrCheckpoint) {
			t.Errorf("LoadState of a phase-%d checkpoint: %v", ck.Phase, err)
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
