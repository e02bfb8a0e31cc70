//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package core

import (
	"bytes"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"silofuse/internal/datagen"
	"silofuse/internal/diffusion"
	"silofuse/internal/silo"
	"silofuse/internal/stats"
	"silofuse/internal/tabular"
)

func loanTable(t *testing.T, rows int) *tabular.Table {
	t.Helper()
	spec, err := datagen.ByName("loan")
	if err != nil {
		t.Fatal(err)
	}
	return spec.Generate(rows, 33)
}

func tinyOptions() Options {
	o := FastOptions()
	o.AEIters = 150
	o.DiffIters = 250
	o.GANIters = 150
	o.Batch = 64
	return o
}

func TestRegistryConstructsAllModels(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := New(name, tinyOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Name() == "" {
			t.Fatalf("%s: empty display name", name)
		}
	}
	if _, err := New("bogus", tinyOptions()); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestSampleBeforeFitErrors(t *testing.T) {
	for _, name := range ModelNames() {
		m, err := New(name, tinyOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Sample(5); err == nil {
			t.Fatalf("%s: Sample before Fit should error", name)
		}
	}
}

// TestAllModelsFitAndSample is the integration smoke test: every model in
// the zoo trains briefly on the loan dataset and produces a valid table
// with the right schema. A negative row count is refused with an error,
// before a message is sent, and zero rows is an empty table.
func TestAllModelsFitAndSample(t *testing.T) {
	tb := loanTable(t, 300)
	for _, name := range ModelNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := tinyOptions()
			opts.AEIters = 60
			opts.DiffIters = 80
			opts.GANIters = 60
			m, err := New(name, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Fit(tb); err != nil {
				t.Fatal(err)
			}
			sent := func() int64 {
				if c, ok := m.(interface{ CommStats() silo.Stats }); ok {
					return c.CommStats().Messages
				}
				return 0
			}
			before := sent()
			if _, err := m.Sample(-1); err == nil {
				t.Fatal("Sample(-1) returned no error")
			}
			if after := sent(); after != before {
				t.Fatalf("Sample(-1) sent %d messages before refusing", after-before)
			}
			if empty, err := m.Sample(0); err != nil || empty.Rows() != 0 {
				t.Fatalf("Sample(0) = %v, %v; want an empty table", empty, err)
			}
			out, err := m.Sample(40)
			if err != nil {
				t.Fatal(err)
			}
			if out.Rows() != 40 {
				t.Fatalf("rows = %d", out.Rows())
			}
			if out.Schema.NumColumns() != tb.Schema.NumColumns() {
				t.Fatal("schema width mismatch")
			}
			for j, c := range out.Schema.Columns {
				if c.Name != tb.Schema.Columns[j].Name {
					t.Fatal("column names lost")
				}
			}
		})
	}
}

// TestSiloFuseQuality trains SiloFuse a bit longer and checks the synthetic
// marginals genuinely resemble the real data (mean KS below a loose bound),
// separating it from noise.
func TestSiloFuseQuality(t *testing.T) {
	tb := loanTable(t, 800)
	opts := tinyOptions()
	opts.AEIters = 400
	opts.DiffIters = 800
	m := NewSiloFuse(opts)
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	out, err := m.Sample(800)
	if err != nil {
		t.Fatal(err)
	}
	nCat := len(tb.Schema.CategoricalIndexes())
	var ks float64
	for j := nCat; j < tb.Schema.NumColumns(); j++ {
		ks += stats.KSStatistic(tb.NumColumn(j), out.NumColumn(j))
	}
	ks /= float64(tb.Schema.NumColumns() - nCat)
	if ks > 0.45 {
		t.Fatalf("SiloFuse marginals too far from real: mean KS %v", ks)
	}
	// Target column should show both classes (no mode collapse).
	freq := stats.Frequencies(out.CatColumn(0), tb.Schema.Columns[0].Cardinality)
	for c, f := range freq {
		if f == 1 {
			t.Fatalf("mode collapse onto class %d", c)
		}
	}
}

func TestSiloFusePartitionedSampling(t *testing.T) {
	tb := loanTable(t, 300)
	m := NewSiloFuse(tinyOptions())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	parts, err := m.SamplePartitioned(25)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != m.Opts.Clients {
		t.Fatalf("parts = %d", len(parts))
	}
	total := 0
	for _, p := range parts {
		if p.Rows() != 25 {
			t.Fatal("row mismatch")
		}
		total += p.Schema.NumColumns()
	}
	if total != tb.Schema.NumColumns() {
		t.Fatal("partitions do not cover the schema")
	}
}

func TestSiloFuseCommStatsSingleRound(t *testing.T) {
	tb := loanTable(t, 200)
	m := NewSiloFuse(tinyOptions())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	st := m.CommStats()
	if st.Messages != int64(m.Opts.Clients) {
		t.Fatalf("training messages = %d, want %d", st.Messages, m.Opts.Clients)
	}
}

// TestLatentNoiseKeepsUploadDense: equal categorical cells give bit-equal
// latents, which the wire codec ships as a row dictionary, here at about
// half the dense bytes; Gaussian noise on the upload (LatentNoiseStd > 0)
// makes every row distinct, so each upload's body stays dense and only its
// byte planes code shorter — the sign and exponent bytes of continuous f64
// values, under a quarter of the dense bytes.
func TestLatentNoiseKeepsUploadDense(t *testing.T) {
	tb := loanTable(t, 200)
	for _, noise := range []float64{0, 0.1} {
		o := tinyOptions()
		o.AEIters, o.DiffIters, o.LatentNoiseStd = 20, 20, noise
		m := NewSiloFuse(o)
		if err := m.Fit(tb); err != nil {
			t.Fatal(err)
		}
		lat := m.WireReport()[string(silo.KindLatents)]
		if lat.Messages != int64(o.Clients) || lat.Bytes >= lat.RawBytes || (4*lat.Bytes > 3*lat.RawBytes) != (noise > 0) {
			t.Fatalf("noise %v: latent upload %+v, want a dictionary's saving exactly when not noised", noise, lat)
		}
	}
}

func TestLatentDiffIsCentralized(t *testing.T) {
	m := NewLatentDiff(tinyOptions())
	if m.Opts.Clients != 1 {
		t.Fatal("LatentDiff must have one client")
	}
	if m.Name() != "LatentDiff" {
		t.Fatal("wrong name")
	}
}

func TestTabDDPMCategoricalValidity(t *testing.T) {
	tb := loanTable(t, 300)
	m := NewTabDDPM(tinyOptions())
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	out, err := m.Sample(100)
	if err != nil {
		t.Fatal(err)
	}
	// NewTable validation inside Sample/Inverse guarantees codes; verify
	// the distribution is not degenerate on the target column.
	freq := stats.Frequencies(out.CatColumn(0), tb.Schema.Columns[0].Cardinality)
	nonzero := 0
	for _, f := range freq {
		if f > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		t.Fatalf("TabDDPM collapsed to one category: %v", freq)
	}
}

func TestE2EDistrUsesConfiguredClients(t *testing.T) {
	tb := loanTable(t, 200)
	opts := tinyOptions()
	opts.Clients = 3
	opts.AEIters = 20
	opts.DiffIters = 20
	m := NewE2EDistr(opts)
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	st := m.CommStats()
	// 4 messages per client per iteration.
	wantMsgs := int64(4 * 3 * (opts.AEIters + opts.DiffIters))
	if st.Messages != wantMsgs {
		t.Fatalf("messages = %d, want %d", st.Messages, wantMsgs)
	}
}

func TestPermutationChangesPartitioning(t *testing.T) {
	tb := loanTable(t, 200)
	opts := tinyOptions()
	opts.Permutation = []int{12, 0, 3, 7, 1, 9, 2, 11, 4, 10, 5, 8, 6}
	m := NewSiloFuse(opts)
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	out, err := m.Sample(20)
	if err != nil {
		t.Fatal(err)
	}
	// Even under permutation, the joined output restores schema order.
	for j, c := range out.Schema.Columns {
		if c.Name != tb.Schema.Columns[j].Name {
			t.Fatal("permuted partitioning broke column restoration")
		}
	}
}

// TestSiloFuseSaveLoadRoundTrip persists a trained model and verifies the
// restored copy produces identical deterministic output (mean decoding,
// fresh seeded sampler).
func TestSiloFuseSaveLoadRoundTrip(t *testing.T) {
	tb := loanTable(t, 250)
	opts := tinyOptions()
	opts.DecodeSampling = false
	m := NewSiloFuse(opts)
	if err := m.Fit(tb); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}

	m2 := NewSiloFuse(opts)
	if _, err := m2.Sample(1); err == nil {
		t.Fatal("unfitted model should not sample")
	}
	if err := m2.Load(tb, &buf); err != nil {
		t.Fatal(err)
	}
	out, err := m2.Sample(30)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 30 || out.Schema.NumColumns() != tb.Schema.NumColumns() {
		t.Fatal("restored model sampling failed")
	}
	// Restored weights must match: encode the training table through both
	// models' first-client autoencoder via partitioned synthesis decoding
	// determinism — compare a fresh sample under identical sampler seeds is
	// not possible (internal rngs advanced), so instead verify Save is
	// stable: saving the restored model reproduces identical bytes.
	var buf2 bytes.Buffer
	if err := m2.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	var buf3 bytes.Buffer
	if err := m.Save(&buf3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Fatal("restored state diverges from saved state")
	}
}

// TestSiloFuseSaveStreams pins the property the train_wide peak_rss_mb claim
// rests on, without reading RSS: on the churn schema (one 2,932-way column,
// 15 MB of weights) Save allocates the writer's fixed buffer and record
// names — under 64 KiB in total, against the four to five copies of the
// model the gob path staged — and loading the stream back allocates the
// fresh backbone the pipeline builds from its own configuration plus less
// than 64 KiB (the latent scaler, the reader's buffer, record names):
// nothing sized by the stream.
func TestSiloFuseSaveStreams(t *testing.T) {
	spec, err := datagen.ByName("churn")
	if err != nil {
		t.Fatal(err)
	}
	o := DefaultOptions()
	o.Seed, o.Batch, o.AEIters, o.DiffIters = 1, 64, 1, 1
	m := NewSiloFuse(o)
	if err := m.Fit(spec.Generate(200, 1)); err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	if err := m.Save(&stream); err != nil {
		t.Fatal(err)
	}
	if stream.Len() < 8<<20 {
		t.Fatalf("churn model saved in %d bytes; the test wants the wide regime", stream.Len())
	}
	allocated := func(f func() error) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		err := f()
		runtime.ReadMemStats(&b)
		if err != nil {
			t.Fatal(err)
		}
		return b.TotalAlloc - a.TotalAlloc
	}
	if got := allocated(func() error { return m.Save(io.Discard) }); got >= 64<<10 {
		t.Errorf("Save of a %d-byte model allocated %d bytes", stream.Len(), got)
	}
	cfg := m.pipe.Cfg.Diff
	cfg.Dim = m.pipe.Coord.Model.Net.In
	backbone := allocated(func() error { diffusion.NewModel(rand.New(rand.NewSource(1)), cfg); return nil })
	rd := bytes.NewReader(stream.Bytes())
	if got := allocated(func() error { return m.pipe.LoadState(rd) }); got >= backbone+64<<10 {
		t.Errorf("LoadState of a %d-byte stream allocated %d bytes, a fresh backbone is %d of them", stream.Len(), got, backbone)
	}
	var again bytes.Buffer
	again.Grow(stream.Len())
	if err := m.Save(&again); err != nil || !bytes.Equal(again.Bytes(), stream.Bytes()) {
		t.Fatalf("re-save after loading the model's own stream differs (err %v)", err)
	}
}

func TestSiloFuseSaveBeforeFit(t *testing.T) {
	m := NewSiloFuse(tinyOptions())
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("expected Save-before-Fit error")
	}
}
