//silofuse:bitwise-ok chaos recovery tests pin bit-identical recovery against fault-free baselines
package silo

import (
	"errors"
	"strings"
	"testing"
	"time"

	"silofuse/internal/datagen"
	"silofuse/internal/obs"
	"silofuse/internal/tabular"
)

// resilientChaos builds the standard fault-tolerant test stack: a LocalBus
// wrapped in a seeded ChaosBus and a ResilientBus with no-op backoff sleeps
// (the retry schedule is deterministic either way; sleeping only adds
// wall-clock to the suite).
func resilientChaos(seed int64, prof ChaosProfile) (*ResilientBus, *ChaosBus) {
	cb := NewChaosBus(NewLocalBus(), seed, prof)
	cfg := DefaultResilientConfig()
	cfg.Sleep = func(time.Duration) {}
	return NewResilientBus(cb, cfg), cb
}

func mustProfile(t *testing.T, name string) ChaosProfile {
	t.Helper()
	prof, err := ChaosProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func sameTable(t *testing.T, label string, a, b *tabular.Table) {
	t.Helper()
	if a.Data.Rows != b.Data.Rows || a.Data.Cols != b.Data.Cols {
		t.Fatalf("%s: output shape %dx%d, want %dx%d", label, b.Data.Rows, b.Data.Cols, a.Data.Rows, a.Data.Cols)
	}
	for i, v := range a.Data.Data {
		if b.Data.Data[i] != v {
			t.Fatalf("%s: output diverges at element %d: %v vs %v", label, i, b.Data.Data[i], v)
		}
	}
}

// chaosStackedRun trains a small stacked pipeline over bus and synthesises
// with mean decoding, returning everything needed for bit-identity checks.
func chaosStackedRun(t *testing.T, bus Bus) (aeLoss, diffLoss float64, out *tabular.Table) {
	t.Helper()
	tb := loanTable(t, 150)
	cfg := smallConfig(2)
	cfg.AEIters, cfg.DiffIters = 40, 60
	p, err := NewPipeline(bus, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	aeLoss, diffLoss, err = p.TrainStacked()
	if err != nil {
		t.Fatal(err)
	}
	out, err = p.SynthesizeShared(0, 30, false)
	if err != nil {
		t.Fatal(err)
	}
	return aeLoss, diffLoss, out
}

// TestChaosMatrixStackedTransparent is the stacked-training and synthesis
// arm of the chaos matrix: under seeded drops, at two chaos seeds, training
// losses and synthesised output are bit-identical to the fault-free
// baseline — the resilient layer's retries absorb the drops without
// perturbing a single float.
func TestChaosMatrixStackedTransparent(t *testing.T) {
	baseAE, baseDiff, baseOut := chaosStackedRun(t, NewLocalBus())
	for _, seed := range []int64{1, 7} {
		rb, cb := resilientChaos(seed, mustProfile(t, "drop"))
		ae, diff, out := chaosStackedRun(t, rb)
		if ae != baseAE || diff != baseDiff {
			t.Fatalf("drop/stacked seed %d: losses (%v, %v) diverge from baseline (%v, %v)",
				seed, ae, diff, baseAE, baseDiff)
		}
		sameTable(t, "drop/stacked", baseOut, out)
		faults := cb.FaultStats()
		rexmit := rb.Stats().ByKind[KindRetransmit]
		if (faults.Drops > 0) != (rexmit > 0) {
			t.Fatalf("drop/stacked seed %d: %d drops but %d retransmit bytes", seed, faults.Drops, rexmit)
		}
	}
}

// TestChaosMatrixE2ETransparent is the E2EDistr arm of the matrix: its
// parties run at once, each on its own goroutine, and under seeded drops, at
// two chaos seeds, the joint loss keeps the bits of the fault-free LocalBus
// run.
func TestChaosMatrixE2ETransparent(t *testing.T) {
	run := func(bus Bus) float64 {
		loss, err := e2eParties(t, bus).Train(12)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}
	base := run(NewLocalBus())
	for _, seed := range []int64{1, 7} {
		rb, _ := resilientChaos(seed, mustProfile(t, "drop"))
		if got := run(rb); got != base {
			t.Fatalf("drop seed %d: e2e loss %v diverges from baseline %v", seed, got, base)
		}
	}
}

// chaosVFLSetup builds the partitioned-features classification task shared
// by the VFL chaos tests.
func chaosVFLSetup(t testing.TB) (silos []*tabular.Table, labels []int, cfg VFLConfig) {
	t.Helper()
	spec, err := datagen.ByName("cardio")
	if err != nil {
		t.Fatal(err)
	}
	tb := spec.Generate(400, 3)
	labels = tb.CatColumn(0)
	featIdx := make([]int, 0, tb.Schema.NumColumns()-1)
	for j := 1; j < tb.Schema.NumColumns(); j++ {
		featIdx = append(featIdx, j)
	}
	features := tb.SelectColumns(featIdx)
	parts, err := features.Schema.Partition(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	silos = features.VerticalPartition(parts)
	cfg = VFLConfig{Classes: tb.Schema.Columns[0].Cardinality, EmbedDim: 8, HeadDim: 16, LR: 2e-3, Seed: 1}
	return silos, labels, cfg
}

// chaosVFLRun trains a fresh split classifier over bus and returns the
// final loss plus predictions for bit-identity comparison.
func chaosVFLRun(t *testing.T, bus Bus) (float64, []int) {
	t.Helper()
	silos, labels, cfg := chaosVFLSetup(t)
	v, err := NewVFLClassifier(silos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := v.Train(bus, silos, labels, 100, 64)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := v.Predict(silos)
	if err != nil {
		t.Fatal(err)
	}
	return loss, pred
}

// TestChaosMatrixVFLTransparent is the split-learning arm of the matrix:
// VFL training under seeded drops recovers the exact fault-free loss and
// predictions. The dense message stream (4 messages x 100 iterations) makes
// the drops actually fire, which the fault counters pin.
func TestChaosMatrixVFLTransparent(t *testing.T) {
	baseLoss, basePred := chaosVFLRun(t, NewLocalBus())
	t.Run("drop", func(t *testing.T) {
		rb, cb := resilientChaos(3, mustProfile(t, "drop"))
		loss, pred := chaosVFLRun(t, rb)
		if loss != baseLoss {
			t.Fatalf("vfl loss %v diverges from baseline %v", loss, baseLoss)
		}
		for i := range basePred {
			if pred[i] != basePred[i] {
				t.Fatalf("prediction %d diverges", i)
			}
		}
		if drops, rexmit := cb.FaultStats().Drops, rb.Stats().ByKind[KindRetransmit]; drops == 0 || rexmit == 0 {
			t.Fatalf("drop profile injected %d drops, %d retransmit bytes", drops, rexmit)
		}
	})
}

// TestChaosCorruptFailsTyped: payload corruption must never silently poison
// training — the checksum catches the flipped bit and the run fails with
// the typed ErrCorruptPayload instead of hanging or converging on garbage.
func TestChaosCorruptFailsTyped(t *testing.T) {
	// Dense VFL traffic with the stock 12% corruption rate: a corrupt
	// message is statistically certain within the first iterations.
	rb, _ := resilientChaos(4, mustProfile(t, "corrupt"))
	silos, labels, cfg := chaosVFLSetup(t)
	v, err := NewVFLClassifier(silos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Train(rb, silos, labels, 100, 64); !errors.Is(err, ErrCorruptPayload) {
		t.Fatalf("vfl over corrupt profile: err = %v, want ErrCorruptPayload", err)
	}

	// Stacked training ships only a couple of messages, so pin the path
	// with a corrupt-everything profile instead of relying on the hash.
	rb2, _ := resilientChaos(4, ChaosProfile{Name: "corrupt-all", CorruptPermille: 1000})
	tb := loanTable(t, 120)
	pcfg := smallConfig(2)
	pcfg.AEIters, pcfg.DiffIters = 10, 10
	p, err := NewPipeline(rb2, tb, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.TrainStacked(); !errors.Is(err, ErrCorruptPayload) {
		t.Fatalf("stacked over corrupt-all: err = %v, want ErrCorruptPayload", err)
	}
}

// TestChaosBlackholeFailsTyped: a link that drops everything must exhaust
// the bounded retry budget and surface the typed ErrPeerDead — promptly,
// not hang (the no-op sleep makes the whole budget run in microseconds).
func TestChaosBlackholeFailsTyped(t *testing.T) {
	rb, _ := resilientChaos(1, mustProfile(t, "blackhole"))
	tb := loanTable(t, 120)
	cfg := smallConfig(2)
	cfg.AEIters, cfg.DiffIters = 10, 10
	p, err := NewPipeline(rb, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, trainErr := p.TrainStacked()
	if !errors.Is(trainErr, ErrPeerDead) {
		t.Fatalf("stacked over blackhole: err = %v, want ErrPeerDead", trainErr)
	}
	var pd *PeerDeadError
	if !errors.As(trainErr, &pd) || pd.Peer == "" {
		t.Fatalf("blackhole error %v does not name the dead peer", trainErr)
	}

	silos, labels, vcfg := chaosVFLSetup(t)
	v, err := NewVFLClassifier(silos, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	rb2, _ := resilientChaos(1, mustProfile(t, "blackhole"))
	if _, err := v.Train(rb2, silos, labels, 10, 64); !errors.Is(err, ErrPeerDead) {
		t.Fatalf("vfl over blackhole: err = %v, want ErrPeerDead", err)
	}
}

// TestResilientByteAccounting pins the goodput/retransmit split the bench
// tables rely on: total bytes decompose exactly into per-kind goodput plus
// the retransmit bucket, goodput is invariant across chaos seeds (first
// transmissions are the application's message stream, which recovery
// replays exactly), and a fault-free resilient run costs a bare LocalBus
// run's bytes plus the 16 frame bytes of Seq and Sum on every message. The
// baseline for the faulty runs is therefore the fault-free resilient stack.
func TestResilientByteAccounting(t *testing.T) {
	bare := NewLocalBus()
	baseLoss, _ := chaosVFLRun(t, bare)

	cfgR := DefaultResilientConfig()
	cfgR.Sleep = func(time.Duration) {}
	clean := NewResilientBus(NewLocalBus(), cfgR)
	if loss, _ := chaosVFLRun(t, clean); loss != baseLoss {
		t.Fatalf("fault-free resilient run loss %v diverges from bare bus %v", loss, baseLoss)
	}
	cleanStats := clean.Stats()
	if want := bare.Stats().Bytes + 16*cleanStats.Messages; cleanStats.Bytes != want || cleanStats.Messages != bare.Stats().Messages {
		t.Fatalf("fault-free resilient run: %d B in %d msgs, want the bare bus's %d B in %d msgs plus 16 B of sequencing each = %d B",
			cleanStats.Bytes, cleanStats.Messages, bare.Stats().Bytes, bare.Stats().Messages, want)
	}
	if cleanStats.ByKind[KindRetransmit] != 0 {
		t.Fatalf("fault-free run booked %d retransmit bytes", cleanStats.ByKind[KindRetransmit])
	}

	for seed := int64(1); seed <= 5; seed++ {
		rb, cb := resilientChaos(seed, mustProfile(t, "drop"))
		if loss, _ := chaosVFLRun(t, rb); loss != baseLoss {
			t.Fatalf("seed %d: loss diverges under drop profile", seed)
		}
		st := rb.Stats()
		var byKind int64
		for _, b := range st.ByKind {
			byKind += b
		}
		if byKind != st.Bytes {
			t.Fatalf("seed %d: ByKind sums to %d, Bytes = %d", seed, byKind, st.Bytes)
		}
		goodput := st.Bytes - st.ByKind[KindRetransmit]
		if goodput != cleanStats.Bytes {
			t.Fatalf("seed %d: goodput %d != fault-free bytes %d", seed, goodput, cleanStats.Bytes)
		}
		if st.Messages != cleanStats.Messages {
			t.Fatalf("seed %d: %d goodput messages, want %d", seed, st.Messages, cleanStats.Messages)
		}
		for kind, b := range cleanStats.ByKind {
			if st.ByKind[kind] != b {
				t.Fatalf("seed %d: ByKind[%s] = %d, want %d (per-kind goodput must be seed-invariant)", seed, kind, st.ByKind[kind], b)
			}
		}
		if cb.FaultStats().Drops == 0 || st.ByKind[KindRetransmit] == 0 {
			t.Fatalf("seed %d: drop profile injected no observable faults", seed)
		}
		if rb.Retries() == 0 {
			t.Fatalf("seed %d: retransmit bytes booked but no retries counted", seed)
		}
	}
}

// TestResilientWireSizePinnedOverTCP pins the resilient layer's byte
// accounting against the sockets under it: over a whole stacked fit and a
// synthesis, the bytes the hub and the peers wrote are exactly the bytes the
// resilient layer booked (sequencing and checksum fields included) plus the
// one hello that opened each peer's stream, so Table VIII numbers computed
// from the goodput/retransmit split are measured traffic.
func TestResilientWireSizePinnedOverTCP(t *testing.T) {
	hub, err := NewTCPHub("coord", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	peers := make(map[string]*TCPPeer, 2)
	for _, name := range []string{"c0", "c1"} {
		p, err := DialHub(name, hub.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		peers[name] = p
	}
	cfg := DefaultResilientConfig()
	cfg.Sleep = func(time.Duration) {}
	rb := NewResilientBus(&routedBus{hub: hub, peers: peers}, cfg)

	tb := loanTable(t, 120)
	pcfg := smallConfig(2)
	pcfg.AEIters, pcfg.DiffIters = 10, 10
	pipe, err := NewPipeline(rb, tb, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := pipe.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.SynthesizeShared(0, 30, false); err != nil {
		t.Fatal(err)
	}

	measured := hub.Stats().Bytes
	var hellos int64
	for name, p := range peers {
		measured += p.Stats().Bytes
		hellos += (&Envelope{From: name, Kind: kindHello}).WireSize()
	}
	booked := rb.Stats().Bytes
	if booked == 0 || measured != booked+hellos {
		t.Fatalf("sockets carried %d bytes, the resilient layer booked %d + %d of hellos", measured, booked, hellos)
	}
}

// TestResilientRetryMetrics: the retry path must be visible in
// the observability layer, not just the Stats split.
func TestResilientRetryMetrics(t *testing.T) {
	rec := obs.NewRecorder()
	rb, _ := resilientChaos(3, mustProfile(t, "drop"))
	rb.SetRecorder(rec)
	silos, labels, cfg := chaosVFLSetup(t)
	v, err := NewVFLClassifier(silos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.Train(rb, silos, labels, 60, 64); err != nil {
		t.Fatal(err)
	}
	counters := rec.Snapshot().Counters
	var retries int64
	for name, val := range counters {
		if strings.HasPrefix(name, "bus_retries_total") {
			retries += val
		}
	}
	if retries == 0 {
		t.Fatalf("no bus_retries_total counters recorded: %v", counters)
	}
	if retries != rb.Retries() {
		t.Fatalf("metrics count %v retries, bus counted %d", retries, rb.Retries())
	}
}

// TestResilientRefusesOutOfSequence: every link delivers in order and once,
// so the receive side accepts only the link's next sequence number. A
// repeated number, a skipped one and an unstamped envelope each come back
// from Recv as an ErrCorruptPayload-class error, noted on the recorder,
// promptly: none is waited on, discarded or let through unchecked.
func TestResilientRefusesOutOfSequence(t *testing.T) {
	stamped := func(seq uint64) *Envelope {
		e := &Envelope{From: "c0", To: "coord", Kind: KindSynthReq, Seq: seq}
		e.Sum = checksumEnvelope(e)
		return e
	}
	for _, tc := range []struct {
		name string
		sent []*Envelope // the last is the one to refuse
	}{
		{name: "repeated seq", sent: []*Envelope{stamped(1), stamped(1)}},
		{name: "gap", sent: []*Envelope{stamped(1), stamped(3)}},
		{name: "unstamped", sent: []*Envelope{{From: "c0", To: "coord", Kind: KindSynthReq}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := NewLocalBus()
			defer inner.Close()
			rec := obs.NewRecorder()
			rb := NewResilientBus(inner, DefaultResilientConfig())
			rb.SetRecorder(rec)
			for _, e := range tc.sent {
				if err := inner.Send(e); err != nil {
					t.Fatal(err)
				}
			}
			for i := range tc.sent[:len(tc.sent)-1] {
				if e, err := rb.Recv("coord"); err != nil || e.Seq != uint64(i+1) {
					t.Fatalf("in-order envelope %d: %v, %v", i+1, e, err)
				}
			}
			got := make(chan error, 1)
			go func() {
				_, err := rb.Recv("coord")
				got <- err
			}()
			select {
			case err := <-got:
				if !errors.Is(err, ErrCorruptPayload) {
					t.Fatalf("Recv: %v, want ErrCorruptPayload", err)
				}
			case <-time.After(time.Second):
				t.Fatal("Recv still blocked after 1 s")
			}
			if n := rec.Snapshot().Counters["bus_corrupt_total_synth-req"]; n != 1 {
				t.Fatalf("bus_corrupt_total_synth-req = %d, want 1", n)
			}
		})
	}
}
