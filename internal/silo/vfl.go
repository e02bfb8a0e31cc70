package silo

import (
	"fmt"
	"math/rand"

	"silofuse/internal/nn"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// Per-iteration rng derivation: the per-iteration training loops (VFL, E2E)
// draw each iteration's randomness from a generator seeded by (run seed,
// salt, iteration). The E2EDistr loss bits the fit fingerprint pins are drawn
// through it.
const (
	iterSeedStride = 1_000_003
	vflIterSalt    = 424_243
	e2eIterSalt    = 600_011
)

// derivedRng reseeds r, a generator its party owns, as the deterministic
// generator for one training iteration and returns it: the stream is that of
// a fresh rand.NewSource of the iteration's seed, without allocating one.
func derivedRng(r *rand.Rand, seed, salt int64, it int) *rand.Rand {
	r.Seed(seed + salt + int64(it)*iterSeedStride)
	return r
}

// VFLClassifier is the paper's future-work path made concrete: a vertical
// federated learning model for downstream tasks on data that *stays*
// vertically partitioned (real or synthetic). Each client embeds its local
// features with a private linear+GELU block; the label-holding coordinator
// concatenates the embeddings and applies a classification head. Training
// is split learning over the Bus: embeddings up, embedding-gradients down —
// so the strong-privacy synthesis mode (partitioned synthetic data) still
// supports collaborative modelling without anyone centralising features.
type VFLClassifier struct {
	Classes  int
	EmbedDim int

	bottoms []*nn.Sequential
	encs    []*tabular.Encoder
	head    *nn.Sequential
	optBot  []*nn.Adam
	optHead *nn.Adam
	rng     *rand.Rand
	seed    int64
	index   clientIndex
}

// VFLConfig configures the federated classifier.
type VFLConfig struct {
	Classes  int // number of target classes
	EmbedDim int // per-client embedding width
	HeadDim  int // coordinator head hidden width
	LR       float64
	Seed     int64
}

// NewVFLClassifier builds the split model for the given per-client feature
// partitions (used only for schema/featuriser fitting).
func NewVFLClassifier(parts []*tabular.Table, cfg VFLConfig) (*VFLClassifier, error) {
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("silo: vfl needs >= 2 classes")
	}
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = 8
	}
	if cfg.HeadDim <= 0 {
		cfg.HeadDim = 32
	}
	if cfg.LR <= 0 {
		cfg.LR = 1e-3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	v := &VFLClassifier{Classes: cfg.Classes, EmbedDim: cfg.EmbedDim, rng: rng, seed: cfg.Seed, index: clientIndex{}}
	for i, p := range parts {
		v.index[fmt.Sprintf("c%d", i)] = i
		enc := tabular.NewEncoder(p)
		bottom := nn.NewSequential(
			nn.NewLinear(rng, enc.Width(), cfg.EmbedDim), &nn.GELU{},
		)
		v.encs = append(v.encs, enc)
		v.bottoms = append(v.bottoms, bottom)
		v.optBot = append(v.optBot, nn.NewAdam(bottom.Params(), cfg.LR))
	}
	total := cfg.EmbedDim * len(parts)
	v.head = nn.NewSequential(
		nn.NewLinear(rng, total, cfg.HeadDim), &nn.GELU{},
		nn.NewLinear(rng, cfg.HeadDim, cfg.Classes),
	)
	v.optHead = nn.NewAdam(v.head.Params(), cfg.LR)
	return v, nil
}

// Train runs iters split-learning iterations over bus. parts are the
// clients' aligned feature partitions; labels live at the coordinator.
// Every iteration sends one embedding per client up and one gradient per
// client down (all byte-accounted). Each iteration draws its batch from a
// generator derived from (seed, iteration).
func (v *VFLClassifier) Train(bus Bus, parts []*tabular.Table, labels []int, iters, batch int) (float64, error) {
	if len(parts) != len(v.bottoms) {
		return 0, fmt.Errorf("silo: vfl built for %d clients, got %d parts", len(v.bottoms), len(parts))
	}
	rows := parts[0].Rows()
	if len(labels) != rows {
		return 0, fmt.Errorf("silo: %d labels for %d rows", len(labels), rows)
	}
	if batch > rows {
		batch = rows
	}
	var loss float64
	idx := make([]int, batch)
	rng := rand.New(rand.NewSource(0))
	for it := 0; it < iters; it++ {
		derivedRng(rng, v.seed, vflIterSalt, it)
		for i := range idx {
			idx[i] = rng.Intn(rows)
		}
		// Clients: embed and upload.
		for ci, p := range parts {
			x := v.encs[ci].Transform(p.SelectRows(idx))
			emb := v.bottoms[ci].Forward(x, true)
			if err := bus.Send(&Envelope{From: fmt.Sprintf("c%d", ci), To: "coord", Kind: KindActivation, Payload: emb}); err != nil {
				return 0, err
			}
		}
		embs := make([]*tensor.Matrix, len(parts))
		for range parts {
			env, err := bus.Recv("coord")
			if err != nil {
				return 0, err
			}
			ci, err := v.index.of(env.From)
			if err != nil {
				return 0, err
			}
			embs[ci] = env.Payload
		}
		// Coordinator: head forward/backward on the concatenated embedding.
		h := tensor.HStack(embs...)
		out := v.head.Forward(h, true)
		batchLabels := make([]int, batch)
		for i, r := range idx {
			batchLabels[i] = labels[r]
		}
		var grad *tensor.Matrix
		loss, grad = nn.CrossEntropyLoss(out, batchLabels)
		gh := v.head.Backward(grad)
		v.optHead.Step()
		// Gradients back down; clients update their bottoms.
		off := 0
		for ci := range parts {
			part := gh.SliceCols(off, off+v.EmbedDim)
			off += v.EmbedDim
			if err := bus.Send(&Envelope{From: "coord", To: fmt.Sprintf("c%d", ci), Kind: KindGradDown, Payload: part}); err != nil {
				return 0, err
			}
		}
		for ci := range parts {
			env, err := bus.Recv(fmt.Sprintf("c%d", ci))
			if err != nil {
				return 0, err
			}
			v.bottoms[ci].BackwardParams(env.Payload)
			v.optBot[ci].Step()
		}
	}
	return loss, nil
}

// Predict classifies aligned partitioned rows (no label needed).
func (v *VFLClassifier) Predict(parts []*tabular.Table) ([]int, error) {
	if len(parts) != len(v.bottoms) {
		return nil, fmt.Errorf("silo: vfl built for %d clients, got %d parts", len(v.bottoms), len(parts))
	}
	embs := make([]*tensor.Matrix, len(parts))
	for ci, p := range parts {
		embs[ci] = v.bottoms[ci].Forward(v.encs[ci].Transform(p), false)
	}
	out := v.head.Forward(tensor.HStack(embs...), false)
	pred := make([]int, out.Rows)
	for i := range pred {
		row := out.Row(i)
		best := 0
		for j, val := range row {
			if val > row[best] {
				best = j
			}
		}
		pred[i] = best
	}
	return pred, nil
}
