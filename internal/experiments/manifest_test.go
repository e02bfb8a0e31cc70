//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"silofuse/internal/obs"
	"silofuse/internal/silo"
	"silofuse/internal/tensor"
)

func TestManifestFromRecorderAndWrite(t *testing.T) {
	rec := obs.NewRecorder()
	sp := rec.StartSpan("ae-train")
	sp.SetAttr("clients", 2)
	rec.TrainStep("ae", 1.5, 64, time.Millisecond)
	sp.End()
	sp = rec.StartSpan("diffusion-train")
	child := rec.StartSpan("inner") // nested spans must not become phases
	child.End()
	sp.End()
	rec.Message("latents", 4096, time.Millisecond)
	rec.Message("synth-latent", 1024, time.Millisecond)
	rec.WireCodec("f32", "latents", 4096, 2080, 1.5e-7, 4e-8)

	m := NewManifest("unit", 7)
	m.Config["model"] = "silofuse"
	m.FinalMetrics["resemblance"] = 80.5
	m.FromRecorder(rec)
	m.FromStats(silo.Stats{
		Messages:   3,
		Bytes:      5120,
		BytesByDir: map[string]int64{"c0->coord": 4096, "coord->c0": 1024},
	})

	if len(m.Phases) != 2 {
		t.Fatalf("phases = %+v, want the 2 top-level spans", m.Phases)
	}
	if m.Phases[0].Name != "ae-train" || m.Phases[1].Name != "diffusion-train" {
		t.Fatalf("phase order = %+v", m.Phases)
	}
	if m.WireBytesByKind["latents"] != 4096 || m.WireBytesByKind["synth-latent"] != 1024 {
		t.Fatalf("wire bytes by kind = %v", m.WireBytesByKind)
	}
	if m.WireBytes != 5120 || m.WireMessages != 2 {
		t.Fatalf("wire totals = %d B / %d msgs", m.WireBytes, m.WireMessages)
	}
	if m.WireBytesByDir["c0->coord"] != 4096 {
		t.Fatalf("wire bytes by dir = %v", m.WireBytesByDir)
	}
	if m.Metrics.Counters["ae_steps_total"] != 1 {
		t.Fatalf("metrics snapshot = %v", m.Metrics.Counters)
	}
	wire := m.Wire["f32/latents"]
	if wire.Messages != 1 || wire.RawBytes != 4096 || wire.Bytes != 2080 ||
		wire.MaxErr != 1.5e-7 || wire.MeanErr != 4e-8 {
		t.Fatalf("wire section = %+v", m.Wire)
	}

	dir := filepath.Join(t.TempDir(), "results", "unit")
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Run != "unit" || back.Seed != 7 {
		t.Fatalf("round trip = %+v", back)
	}
	if back.WireBytesByKind["latents"] != 4096 {
		t.Fatalf("round-trip wire bytes = %v", back.WireBytesByKind)
	}
	if back.FinalMetrics["resemblance"] != 80.5 {
		t.Fatalf("round-trip final metrics = %v", back.FinalMetrics)
	}
	if back.Wire["f32/latents"].Bytes != 2080 {
		t.Fatalf("round-trip wire section = %+v", back.Wire)
	}
}

// TestManifestNilRecorder: building a manifest without telemetry is valid.
func TestManifestNilRecorder(t *testing.T) {
	m := NewManifest("empty", 1)
	m.FromRecorder(nil)
	if len(m.Phases) != 0 || m.WireBytes != 0 {
		t.Fatalf("nil recorder should leave manifest empty: %+v", m)
	}
	if err := m.Write(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

func TestManifestWireSection(t *testing.T) {
	rec := obs.NewRecorder()
	// Two sends on one stream (counters accumulate, gauges carry the
	// caller's running aggregates) plus a hyphenated kind, which must not
	// confuse the first-underscore codec/kind split.
	rec.WireCodec("f32", "latents", 1000, 520, 1e-7, 3e-8)
	rec.WireCodec("f32", "latents", 1000, 520, 2e-7, 4e-8)
	rec.WireCodec("q8", "synth-latent", 2048, 580, 3e-3, 9e-4)

	m := NewManifest("fig10", 1)
	m.FromRecorder(rec)
	lat := m.Wire["f32/latents"]
	if lat.Messages != 2 || lat.RawBytes != 2000 || lat.Bytes != 1040 {
		t.Fatalf("f32/latents = %+v", lat)
	}
	if lat.MaxErr != 2e-7 || lat.MeanErr != 4e-8 {
		t.Fatalf("f32/latents errors = %+v", lat)
	}
	syn := m.Wire["q8/synth-latent"]
	if syn.Messages != 1 || syn.Bytes != 580 || syn.MaxErr != 3e-3 {
		t.Fatalf("q8/synth-latent = %+v", syn)
	}

	// Merging a second party's recorder sums counts and keeps the worst
	// error, so the manifest reflects fleet totals.
	rec2 := obs.NewRecorder()
	rec2.WireCodec("f32", "latents", 1000, 520, 5e-7, 1e-8)
	m.FromRecorder(rec2)
	lat = m.Wire["f32/latents"]
	if lat.Messages != 3 || lat.Bytes != 1560 || lat.MaxErr != 5e-7 || lat.MeanErr != 4e-8 {
		t.Fatalf("merged f32/latents = %+v", lat)
	}

	// A recorder without wire metrics leaves the section alone, and a
	// manifest that never saw a codec has no section at all.
	m.FromRecorder(obs.NewRecorder())
	if len(m.Wire) != 2 {
		t.Fatalf("wire section grew on empty recorder: %v", m.Wire)
	}
	plain := NewManifest("fig10", 1)
	plain.FromRecorder(obs.NewRecorder())
	if plain.Wire != nil {
		t.Fatalf("unexpected wire section: %v", plain.Wire)
	}
}

func TestManifestRuntimeStamp(t *testing.T) {
	m := NewManifest("run", 1)
	if m.Runtime.Kernel != tensor.KernelTier() || m.Runtime.GoVersion != runtime.Version() || m.Runtime.GOOS != runtime.GOOS ||
		m.Runtime.GOARCH != runtime.GOARCH || m.Runtime.NumCPU != runtime.NumCPU() ||
		m.Runtime.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("manifest runtime = %+v", m.Runtime)
	}
}
