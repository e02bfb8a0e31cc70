package core

import (
	"bytes"
	"runtime"
	"testing"

	"silofuse/internal/datagen"
	"silofuse/internal/tabular"
	"silofuse/internal/tensor"
)

// liveHeap is the heap in use once everything unreachable has been collected
// (the second cycle finishes what the first one's finalisers and sweep left).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestFittedModelIsItsCheckpoint pins, without reading RSS, the property the
// synth_small_wide peak_rss_mb claim rests on: at the benchmark's shapes a
// fitted model, and a loaded one, keep about as many bytes live as Save
// writes — the weights, plus the client partitions and featuriser tables —
// where a fitted churn model used to keep 7.9 times its checkpoint (a
// gradient, two Adam moments and a dW scratch per weight, every training
// batch's activations) and a loaded one 2.9 times. A Sample(64) then adds
// the forward outputs of one 64-row batch, the packed weights its products
// read, and nothing that grows with the training batch or the table.
func TestFittedModelIsItsCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("two full-width fits")
	}
	for _, c := range []struct {
		dataset         string
		rows, diffIters int
	}{
		{"churn", 2000, 2},
		{"adult", 4000, 22},
	} {
		spec, err := datagen.ByName(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		table := spec.Generate(c.rows, 1)
		o := DefaultOptions()
		o.Seed, o.Batch, o.AEIters, o.DiffIters, o.SynthSteps = 1, 256, 6, c.diffIters, 5

		base := liveHeap()
		m := NewSiloFuse(o)
		if err := m.Fit(table); err != nil {
			t.Fatal(err)
		}
		fitted := liveHeap() - base
		var stream bytes.Buffer
		if err := m.Save(&stream); err != nil {
			t.Fatal(err)
		}
		bound := int64(stream.Len())*5/4 + 1<<20
		if fitted > bound {
			t.Errorf("%s: a fitted model keeps %d KB live, its checkpoint is %d KB (bound %d KB)", c.dataset, fitted>>10, stream.Len()>>10, bound>>10)
		}

		base = liveHeap() // the fitted model and the stream stay reachable below
		l := NewSiloFuse(o)
		if err := l.Load(table, bytes.NewReader(stream.Bytes())); err != nil {
			t.Fatal(err)
		}
		loaded := liveHeap() - base
		if loaded > bound {
			t.Errorf("%s: a loaded model keeps %d KB live, its checkpoint is %d KB (bound %d KB)", c.dataset, loaded>>10, stream.Len()>>10, bound>>10)
		}

		const n = 64
		if _, err := l.Sample(n); err != nil {
			t.Fatal(err)
		}
		sampled, ws := liveHeap()-base, sampleWorkspaceBytes(l, n)
		if sampled > loaded+ws+128<<10 {
			t.Errorf("%s: Sample(%d) left %d KB more live than the loaded model; its forward workspaces are %d KB", c.dataset, n, (sampled-loaded)>>10, ws>>10)
		}
		runtime.KeepAlive(m)
		runtime.KeepAlive(l)
		t.Logf("%s: checkpoint %d KB, fitted %d KB, loaded %d KB, after Sample(%d) %d KB (computed workspaces %d KB)", c.dataset, stream.Len()>>10, fitted>>10, loaded>>10, n, sampled>>10, ws>>10)
	}
}

// sampleWorkspaceBytes is what an n-row request leaves sized in a model's
// layers: every Linear and GELU output of the backbone (dropout is the
// identity when sampling) and of each client's decoder, the one projected
// timestep row, the input each first layer still points at, the sampler's
// two ping-pong matrices (one of them that input) and timesteps, and the
// packed weights of every Linear whose n-row product runs on the tile.
func sampleWorkspaceBytes(s *SiloFuse, n int) int64 {
	d := s.pipe.Cfg.Diff
	dim := s.pipe.Coord.Model.Net.In
	elems := n*(d.Hidden*(1+2*d.Depth)+3*dim+1) + d.Hidden + d.TimeDim
	panels := tensor.PanelBytes(n, dim, d.Hidden) + d.Depth*tensor.PanelBytes(n, d.Hidden, d.Hidden) +
		tensor.PanelBytes(n, d.Hidden, dim) // the time projection's one row is no strip
	for _, c := range s.pipe.Clients {
		heads := 0
		for _, col := range c.Data.Schema.Columns {
			if col.Kind == tabular.Numeric {
				heads += 2
			} else {
				heads += col.Cardinality
			}
		}
		ae := c.AE.Cfg
		elems += n * (ae.Latent + 2*ae.Embed + 2*ae.Hidden + heads)
		panels += tensor.PanelBytes(n, ae.Latent, ae.Embed) + tensor.PanelBytes(n, ae.Embed, ae.Hidden) +
			tensor.PanelBytes(n, ae.Hidden, heads)
	}
	return 8*int64(elems) + int64(panels)
}
