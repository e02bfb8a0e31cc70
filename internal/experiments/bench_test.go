//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"silofuse/internal/obs"
	"silofuse/internal/tensor"
)

func TestBenchSnapshotFromRecorder(t *testing.T) {
	rec := obs.NewRecorder()
	sp := rec.StartSpan("ae-train")
	for i := 0; i < 4; i++ {
		rec.TrainStep("ae", 1.0, 25, 10*time.Millisecond)
	}
	sp.End()
	rec.TrainAllocs("ae", 4, 8, 4096)
	rec.Message("latents", 4096, time.Millisecond)
	rec.Message("synth-req", 64, time.Microsecond)

	b := NewBenchSnapshot("fig10", "fast")
	b.WallSeconds = 1.5
	b.FromRecorder(rec)

	if len(b.Phases) != 1 || b.Phases[0].Name != "ae-train" {
		t.Fatalf("phases = %+v", b.Phases)
	}
	// 4 steps x 25 rows over 4 x 10ms observed step time = 2500 rows/sec.
	rps, ok := b.RowsPerSec["ae"]
	if !ok || rps < 500 || rps > 3000 {
		t.Fatalf("ae rows/sec = %v (ok=%v), want ≈2500", rps, ok)
	}
	if b.StepSeconds["ae"].Count != 4 {
		t.Fatalf("ae step histogram = %+v", b.StepSeconds["ae"])
	}
	if b.WireBytesByKind["latents"] != 4096 || b.WireBytesByKind["synth-req"] != 64 {
		t.Fatalf("wire bytes by kind = %v", b.WireBytesByKind)
	}
	if b.WireMessages != 2 {
		t.Fatalf("wire messages = %d, want 2", b.WireMessages)
	}
	if b.Runtime.GoVersion != runtime.Version() || b.Runtime.NumCPU < 1 || b.Runtime.GOMAXPROCS < 1 {
		t.Fatalf("runtime stamp = %+v", b.Runtime)
	}
	if b.AllocsPerStep["ae"] != 2 || b.AllocBytesPerStep["ae"] != 1024 {
		t.Fatalf("alloc stats = %v / %v, want 2 allocs and 1024 bytes per step",
			b.AllocsPerStep["ae"], b.AllocBytesPerStep["ae"])
	}

	// A nil recorder leaves the snapshot unchanged.
	before := len(b.Phases)
	b.FromRecorder(nil)
	if len(b.Phases) != before {
		t.Fatal("nil recorder mutated snapshot")
	}
}

func TestBenchSnapshotWireSection(t *testing.T) {
	rec := obs.NewRecorder()
	// Two sends on one stream (counters accumulate, gauges carry the
	// caller's running aggregates) plus a hyphenated kind, which must not
	// confuse the first-underscore codec/kind split.
	rec.WireCodec("f32", "latents", 1000, 520, 1e-7, 3e-8)
	rec.WireCodec("f32", "latents", 1000, 520, 2e-7, 4e-8)
	rec.WireCodec("q8", "synth-latent", 2048, 580, 3e-3, 9e-4)

	b := NewBenchSnapshot("fig10", "fast")
	b.FromRecorder(rec)
	lat := b.Wire["f32/latents"]
	if lat.Messages != 2 || lat.RawBytes != 2000 || lat.Bytes != 1040 {
		t.Fatalf("f32/latents = %+v", lat)
	}
	if lat.MaxErr != 2e-7 || lat.MeanErr != 4e-8 {
		t.Fatalf("f32/latents errors = %+v", lat)
	}
	syn := b.Wire["q8/synth-latent"]
	if syn.Messages != 1 || syn.Bytes != 580 || syn.MaxErr != 3e-3 {
		t.Fatalf("q8/synth-latent = %+v", syn)
	}

	// Merging a second party's recorder sums counts and keeps the worst
	// error, so the snapshot reflects fleet totals.
	rec2 := obs.NewRecorder()
	rec2.WireCodec("f32", "latents", 1000, 520, 5e-7, 1e-8)
	b.FromRecorder(rec2)
	lat = b.Wire["f32/latents"]
	if lat.Messages != 3 || lat.Bytes != 1560 || lat.MaxErr != 5e-7 || lat.MeanErr != 4e-8 {
		t.Fatalf("merged f32/latents = %+v", lat)
	}

	// A recorder without wire metrics leaves the section alone, and a
	// snapshot that never saw a codec has no section at all.
	b.FromRecorder(obs.NewRecorder())
	if len(b.Wire) != 2 {
		t.Fatalf("wire section grew on empty recorder: %v", b.Wire)
	}
	plain := NewBenchSnapshot("fig10", "fast")
	plain.FromRecorder(obs.NewRecorder())
	if plain.Wire != nil {
		t.Fatalf("unexpected wire section: %v", plain.Wire)
	}
}

func TestBenchSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "BENCH_silofuse.json")
	b := NewBenchSnapshot("all", "fast")
	b.WallSeconds = 2.25
	b.WireMessages = 9
	if err := b.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Exp != "all" || got.Scale != "fast" || got.WallSeconds != 2.25 || got.WireMessages != 9 {
		t.Fatalf("round trip = %+v", got)
	}
	// The file uses snake_case keys and ends with a newline.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"wall_seconds"`) || !strings.HasSuffix(string(data), "\n") {
		t.Fatalf("snapshot file format:\n%s", data)
	}
}

func TestBenchSnapshotValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v map[string]any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	now := time.Now().UTC().Format(time.RFC3339)
	valid := map[string]any{
		"created_at": now, "exp": "fig10", "scale": "fast", "wall_seconds": 1.0,
		"runtime": map[string]any{"go_version": "go1.22"},
	}
	// valid's runtime predates the kernel field: -check-bench must read it
	// and the -bench-baseline gate must diff a fresh snapshot against it.
	old, err := ReadBenchSnapshot(write("ok.json", valid))
	if err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	fresh := NewBenchSnapshot("fig10", "fast")
	if old.Runtime.Kernel != "" || fresh.Runtime.Kernel != tensor.KernelTier() {
		t.Fatalf("kernel stamps: old %q, fresh %q, want \"\" and %q", old.Runtime.Kernel, fresh.Runtime.Kernel, tensor.KernelTier())
	}
	if rep := DiffMetrics(BenchMetrics(old), BenchMetrics(fresh), BenchGateThresholds()); rep.Regressions != 0 {
		t.Fatalf("gate against a baseline without runtime.kernel: %+v", rep.Entries)
	}
	for field, wantErr := range map[string]string{
		"created_at":   "created_at",
		"exp":          "exp",
		"runtime":      "go_version",
		"wall_seconds": "wall_seconds",
	} {
		bad := make(map[string]any, len(valid))
		for k, v := range valid {
			if k != field {
				bad[k] = v
			}
		}
		_, err := ReadBenchSnapshot(write("bad.json", bad))
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("missing %s: err = %v, want mention of %s", field, err, wantErr)
		}
	}
	if _, err := ReadBenchSnapshot(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("absent file should error")
	}
	notJSON := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(notJSON, []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchSnapshot(notJSON); err == nil {
		t.Fatal("corrupt file should error")
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
