package silo

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"silofuse/internal/diffusion"
	"silofuse/internal/tensor"
)

// TestStackedTrainingSurfacesTransportFailure: a bare (unwrapped) ChaosBus
// blackhole fails every delivery, and without the resilient layer the
// failure must still surface from training as a typed ErrPeerDead naming the
// dead peer, with each client's upload sent exactly once, rather than be
// swallowed or hang. The run over the resilient layer is
// TestChaosBlackholeFailsTyped.
func TestStackedTrainingSurfacesTransportFailure(t *testing.T) {
	tb := loanTable(t, 120)
	cfg := smallConfig(2)
	cfg.AEIters, cfg.DiffIters = 10, 10
	cb := NewChaosBus(NewLocalBus(), 1, mustProfile(t, "blackhole"))
	p, err := NewPipeline(cb, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, _, trainErr := p.TrainStacked()
	var pd *PeerDeadError
	if !errors.As(trainErr, &pd) || pd.Peer == "" {
		t.Fatalf("bare stacked over blackhole: err = %v, want ErrPeerDead naming the dead peer", trainErr)
	}
	if drops := cb.FaultStats().Drops; drops != int64(cfg.Clients) {
		t.Fatalf("bare stacked over blackhole: %d drops, want one per client upload (%d)", drops, cfg.Clients)
	}
}

// TestCoordinatorRejectsWrongMessageKind: an envelope with an unknown kind
// in the latent-collection slot must be rejected by protocol validation.
func TestCoordinatorRejectsWrongMessageKind(t *testing.T) {
	bus := NewLocalBus()
	c := NewCoordinator("coord", []string{"c0", "c1"}, 1)
	bus.Send(&Envelope{From: "c0", To: "coord", Kind: "garbage", Payload: tensor.New(3, 2)})
	if _, err := c.CollectLatents(bus); err == nil {
		t.Fatal("expected kind-validation error")
	}
}

func TestCoordinatorRejectsDuplicateLatents(t *testing.T) {
	bus := NewLocalBus()
	c := NewCoordinator("coord", []string{"c0", "c1"}, 1)
	m := tensor.New(3, 2)
	bus.Send(&Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: m})
	bus.Send(&Envelope{From: "c0", To: "coord", Kind: KindLatents, Payload: m})
	if _, err := c.CollectLatents(bus); err == nil {
		t.Fatal("expected duplicate-latents error")
	}
}

func TestCoordinatorSampleBeforeTrain(t *testing.T) {
	c := NewCoordinator("coord", []string{"c0"}, 1)
	if _, err := c.SampleLatents(5, 5); err == nil {
		t.Fatal("expected no-model error")
	}
}

// TestCoordinatorWhitening verifies latent standardisation round-trips: the
// whitened data has zero mean / unit variance per dimension, and colouring
// restores the original scale.
func TestCoordinatorWhitening(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCoordinator("coord", []string{"c0"}, 1)
	z := tensor.New(500, 3)
	for i := 0; i < 500; i++ {
		z.Set(i, 0, 100+5*rng.NormFloat64())
		z.Set(i, 1, -2+0.1*rng.NormFloat64())
		z.Set(i, 2, rng.NormFloat64())
	}
	c.fitLatentScaler(z)
	w := c.whiten(z)
	for j := 0; j < 3; j++ {
		col := w.Col(j)
		var mean, v float64
		for _, x := range col {
			mean += x
		}
		mean /= float64(len(col))
		for _, x := range col {
			d := x - mean
			v += d * d
		}
		v /= float64(len(col))
		if math.Abs(mean) > 1e-9 || math.Abs(v-1) > 1e-9 {
			t.Fatalf("dim %d not whitened: mean %v var %v", j, mean, v)
		}
	}
	c.colour(w)
	for i := range z.Data {
		if math.Abs(w.Data[i]-z.Data[i]) > 1e-9 {
			t.Fatal("colour does not invert whiten")
		}
	}
}

// TestWhiteningImprovesSampleScale: without whitening, samples start from
// N(0,1) while the true latents sit at a shifted scale, so the sampled
// latent mean is far off; with whitening it matches.
func TestWhiteningImprovesSampleScale(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	z := tensor.New(400, 2)
	for i := 0; i < 400; i++ {
		z.Set(i, 0, 10+rng.NormFloat64())
		z.Set(i, 1, -7+0.5*rng.NormFloat64())
	}
	cfg := diffusion.ModelConfig{Hidden: 32, Depth: 2, TimeDim: 8, T: 50, LR: 2e-3}

	cWhite := NewCoordinator("coord", []string{"c0"}, 2)
	cWhite.latentDims = []int{2}
	cWhite.TrainDiffusion(z, cfg, 300, 128)
	parts, err := cWhite.SampleLatents(400, 10)
	if err != nil {
		t.Fatal(err)
	}
	meanWhite := parts[0].Col(0)
	mw := 0.0
	for _, v := range meanWhite {
		mw += v
	}
	mw /= float64(len(meanWhite))

	cRaw := NewCoordinator("coord", []string{"c0"}, 2)
	cRaw.DisableWhitening = true
	cRaw.latentDims = []int{2}
	cRaw.TrainDiffusion(z, cfg, 300, 128)
	partsRaw, err := cRaw.SampleLatents(400, 10)
	if err != nil {
		t.Fatal(err)
	}
	mr := 0.0
	for _, v := range partsRaw[0].Col(0) {
		mr += v
	}
	mr /= 400

	// True mean is 10. Whitened sampling must land close; raw sampling from
	// an N(0,1) prior cannot bridge the scale gap in 300 iterations.
	if math.Abs(mw-10) > 2 {
		t.Fatalf("whitened sample mean %v, want ≈10", mw)
	}
	if math.Abs(mw-10) >= math.Abs(mr-10) {
		t.Fatalf("whitening should improve scale match: whitened err %v vs raw err %v",
			math.Abs(mw-10), math.Abs(mr-10))
	}
}
