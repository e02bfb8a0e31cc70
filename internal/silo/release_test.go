//silofuse:bitwise-ok a released model and a loaded one are contracted bit-identical
package silo

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"silofuse/internal/tensor"
)

// modelPkgs are the packages whose structs heldBy walks into; anything else
// a model points at (the schema, the featuriser, the training table, rngs,
// recorders) is not the model's to release.
var modelPkgs = map[string]bool{
	"silofuse/internal/nn":          true,
	"silofuse/internal/autoencoder": true,
	"silofuse/internal/diffusion":   true,
}

// keptFields is what a model holds when it is not training, as
// "package.Type.field": the weights, and tables that depend on the
// configuration alone.
var keptFields = map[string]bool{
	"nn.Param.Value":                true,
	"nn.DiffusionMLP.embed":         true, // sinusoidal rows 0..T
	"diffusion.Gaussian.S":          true, // the noise schedule
	"autoencoder.Autoencoder.probs": true, // one softmax row, as wide as the widest categorical head
}

// heldBy lists, by field path, every buffer reachable from root — a tensor
// with data, a non-empty numeric slice — that is not in keptFields. It reads
// unexported fields too, so a workspace added to any layer shows up here
// without the layer's author doing anything.
func heldBy(root any) []string {
	var found []string
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			if e := v.Type().Elem(); e.Kind() == reflect.Struct && e.PkgPath() == "silofuse/internal/tensor" {
				if v.Elem().FieldByName("Data").Len() > 0 {
					found = append(found, path) // under every path that leads to it
				}
				return
			}
			if !seen[v.Pointer()] {
				seen[v.Pointer()] = true
				walk(v.Elem(), path)
			}
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
		case reflect.Struct:
			t := v.Type()
			if !modelPkgs[t.PkgPath()] {
				return
			}
			for i := 0; i < t.NumField(); i++ {
				name := t.Field(i).Name
				if !keptFields[t.String()+"."+name] {
					walk(v.Field(i), path+"."+name)
				}
			}
		case reflect.Slice:
			switch v.Type().Elem().Kind() {
			case reflect.Float64, reflect.Float32, reflect.Int:
				if v.Len() > 0 {
					found = append(found, path)
				}
			case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice:
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
				}
			}
		}
	}
	walk(reflect.ValueOf(root), reflect.TypeOf(root).String())
	return found
}

// pipelineHolds is heldBy over every model of a stacked pipeline.
func pipelineHolds(p *Pipeline) []string {
	var found []string
	for _, c := range p.Clients {
		found = append(found, heldBy(c.AE)...)
	}
	return append(found, heldBy(p.Coord.Model)...)
}

func releaseConfig(emaDecay float64) PipelineConfig {
	cfg := smallConfig(2)
	cfg.AEIters, cfg.DiffIters, cfg.Batch = 5, 6, 32
	cfg.Diff.Dropout, cfg.Diff.EMADecay = 0.01, emaDecay
	return cfg
}

// fittedAndLoaded trains one pipeline and loads its SaveState stream into a
// second one built from the same table and configuration.
func fittedAndLoaded(t *testing.T, cfg PipelineConfig) (fitted, loaded *Pipeline) {
	t.Helper()
	tb := loanTable(t, 150)
	var err error
	if fitted, err = NewPipeline(NewLocalBus(), tb, cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err = fitted.TrainStacked(); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err = fitted.SaveState(&stream); err != nil {
		t.Fatal(err)
	}
	if loaded, err = NewPipeline(NewLocalBus(), tb, cfg); err != nil {
		t.Fatal(err)
	}
	if err = loaded.LoadState(&stream); err != nil {
		t.Fatal(err)
	}
	return fitted, loaded
}

// TestReleasedModelHoldsOnlyWeights is the reflection walk behind "fitted =
// loaded = checkpoint": a constructed, a fitted and a loaded pipeline hold no
// tensor and no numeric slice beyond keptFields — no gradient, moment, cached
// input, batch-shaped workspace or weight average, in any layer type the
// stacked models are built from, including ones added after this test was
// written. A model that is training or has sampled does hold them, which is
// what shows the walk sees them.
func TestReleasedModelHoldsOnlyWeights(t *testing.T) {
	cfg := releaseConfig(0.995)
	built, err := NewPipeline(NewLocalBus(), loanTable(t, 150), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if held := heldBy(built.Clients[0].AE); len(held) != 0 {
		t.Errorf("a constructed autoencoder holds %v", held)
	}

	// Mid-phase, everything the tentpole scoped is there to be found.
	ae := built.Clients[0].AE
	ae.TrainStep(built.Clients[0].Data.Head(cfg.Batch))
	ae.Encode(built.Clients[0].Data.Head(cfg.Batch + 1))
	training := strings.Join(heldBy(ae), " ")
	for _, want := range []string{".W.Grad", ".B.Grad", ".opt.m[0]", ".opt.v[0]", ".gin", ".bsums", ".input", ".out", ".lossGrad", ".ce.terms", ".encPad"} {
		if !strings.Contains(training, want) {
			t.Errorf("the walk over a training autoencoder does not reach %s: %s", want, training)
		}
	}
	ae.ReleaseTraining()
	if held := heldBy(ae); len(held) != 0 {
		t.Errorf("a released autoencoder holds %v", held)
	}

	fitted, loaded := fittedAndLoaded(t, cfg)
	for name, p := range map[string]*Pipeline{"fitted": fitted, "loaded": loaded} {
		if held := pipelineHolds(p); len(held) != 0 {
			t.Errorf("a %s pipeline holds %v", name, held)
		}
	}

	m := fitted.Coord.Model
	m.TrainStep(tensor.New(cfg.Batch, m.Net.In))
	training = strings.Join(heldBy(m), " ")
	for _, want := range []string{".ema.shadow", ".tsBuf", ".epsBuf", ".xtBuf", ".gradBuf", ".Opt.m[0]", ".tfeat", ".hsum", ".mask", ".W.Grad"} {
		if !strings.Contains(training, want) {
			t.Errorf("the walk over a training diffusion model does not reach %s: %s", want, training)
		}
	}
	m.ReleaseTraining()
	if held := heldBy(m); len(held) != 0 {
		t.Errorf("a released diffusion model holds %v", held)
	}

	// Sampling sizes forward outputs for its own batch (each layer also
	// points at the input it was last given), and the sampler its ping-pong
	// matrices, timesteps and inference schedule, and nothing else.
	if _, err := loaded.SynthesizeShared(0, 8, false); err != nil {
		t.Fatal(err)
	}
	sampling := []string{".out", ".input", ".tfeat1", ".sampleX", ".sampleBuf", ".sampleTs", ".sampleSeq"}
	for _, path := range pipelineHolds(loaded) {
		if !slices.ContainsFunc(sampling, func(s string) bool { return strings.HasSuffix(path, s) }) {
			t.Errorf("after a Sample a loaded pipeline holds %s", path)
		}
	}
}

// TestEMASurvivesSaveLoad: the checkpoint stores the backbone's weights and
// nothing about the average, so what TrainDiffusion leaves in the weights has
// to be what Sample reads. Synthesis from the fitted model and from its loaded
// checkpoint, each coordinator rng re-seeded alike, must agree cell for cell,
// with the average off and on. (With it on, a loaded model used to sample
// from the average of a fresh random initialisation.)
func TestEMASurvivesSaveLoad(t *testing.T) {
	for _, decay := range []float64{0, 0.995} {
		fitted, loaded := fittedAndLoaded(t, releaseConfig(decay))
		for seed := int64(17); seed < 19; seed++ {
			fitted.Coord.rng.Seed(seed)
			want, err := fitted.SynthesizeShared(0, 9, false)
			if err != nil {
				t.Fatal(err)
			}
			loaded.Coord.rng.Seed(seed)
			got, err := loaded.SynthesizeShared(0, 9, false)
			if err != nil {
				t.Fatal(err)
			}
			sameTable(t, fmt.Sprintf("decay %v, seed %d, loaded vs fitted", decay, seed), want, got)
		}
	}
}

// TestRetrainAfterRelease pins the contract that makes releasing safe: a
// fitted pipeline is its own checkpoint, loaded. Running the three phases
// again on it — fresh optimisers, a fresh weight average — ends in the bits
// the same calls produce on the loaded copy, once both draw from equal rng
// states (a fitted pipeline's rngs have a training run behind them).
func TestRetrainAfterRelease(t *testing.T) {
	for _, decay := range []float64{0, 0.995} {
		cfg := releaseConfig(decay)
		fitted, loaded := fittedAndLoaded(t, cfg)
		var streams [2]bytes.Buffer
		for k, p := range []*Pipeline{fitted, loaded} {
			for i, c := range p.Clients {
				c.rng.Seed(100 + int64(i)) // the autoencoder draws from the same generator
			}
			p.Coord.rng.Seed(99) // and so do the diffusion model and its dropout layers
			for _, c := range p.Clients {
				c.TrainLocal(cfg.AEIters, cfg.Batch)
				if err := c.UploadLatents(p.Bus, p.Coord.ID, 0); err != nil {
					t.Fatal(err)
				}
			}
			z, err := p.Coord.CollectLatents(p.Bus)
			if err != nil {
				t.Fatal(err)
			}
			p.Coord.TrainDiffusion(z, cfg.Diff, cfg.DiffIters, cfg.Batch)
			if err := p.SaveState(&streams[k]); err != nil {
				t.Fatal(err)
			}
			if held := pipelineHolds(p); len(held) != 0 {
				t.Errorf("decay %v: after a second run the pipeline holds %v", decay, held)
			}
		}
		if !bytes.Equal(streams[0].Bytes(), streams[1].Bytes()) {
			t.Errorf("decay %v: retraining a fitted pipeline and retraining its loaded checkpoint end in different weights", decay)
		}
		var first bytes.Buffer
		again, _ := fittedAndLoaded(t, cfg)
		if err := again.SaveState(&first); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(first.Bytes(), streams[0].Bytes()) {
			t.Errorf("decay %v: the second run left the weights where the first put them", decay)
		}
	}
}
