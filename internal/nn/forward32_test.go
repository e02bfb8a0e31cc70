package nn

import (
	"math"
	"math/rand"
	"testing"

	"silofuse/internal/tensor"
)

// The f32 forward path is a lossy twin of the f64 eval path: same
// structure, same transcendentals, float32 storage and accumulation. These
// tests pin that the divergence stays at rounding scale for the shapes this
// repository runs, and that the steady-state forward allocates nothing.

func assertClose32(t *testing.T, op string, want *tensor.Matrix, got *tensor.Matrix32, tol float64) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", op, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	g64 := tensor.To64(got)
	for i, v := range want.Data {
		if d := math.Abs(g64.Data[i] - v); d > tol*(1+math.Abs(v)) {
			t.Fatalf("%s: diff %g at %d (want %g, got %g) exceeds tol %g", op, d, i, v, g64.Data[i], tol)
		}
	}
}

func TestLinear32MatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	l := NewLinear(rng, 12, 20)
	l32 := NewLinear32FromLinear(l)
	x := tensor.New(9, 12).Randn(rng, 1)
	want := l.Forward(x, false)
	got := l32.Forward(tensor.To32(x))
	assertClose32(t, "Linear32", want, got, 1e-5)
}

func TestSequential32DropsDropoutAndMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	seq := NewSequential(
		NewLinear(rng, 8, 24), &GELU{},
		NewDropout(rng, 0.5), // identity in eval mode, dropped in the snapshot
		NewLinear(rng, 24, 5),
	)
	seq32, err := NewSequential32(seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq32.Layers) != 3 {
		t.Fatalf("snapshot kept %d layers, want 3 (dropout dropped)", len(seq32.Layers))
	}
	x := tensor.New(7, 8).Randn(rng, 1)
	want := seq.Forward(x, false)
	got := seq32.Forward(tensor.To32(x))
	assertClose32(t, "Sequential32", want, got, 1e-5)
}

func TestSequential32RejectsUnsupportedLayer(t *testing.T) {
	if _, err := NewSequential32(NewSequential(NewLeakyReLU(0.2))); err == nil {
		t.Fatal("expected error for layer without an f32 forward")
	}
}

func TestDiffusionMLP32MatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	d := NewDiffusionMLP(rng, 6, 48, 6, 3, 8, 0.01)
	d.WarmTimesteps(50)
	d32, err := d.Snapshot32()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(11, 6).Randn(rng, 1)
	ts := make([]int, 11)
	for i := range ts {
		ts[i] = 1 + rng.Intn(50)
	}
	want := d.Forward(x, ts, false)
	got := d32.Forward(tensor.To32(x), ts)
	assertClose32(t, "DiffusionMLP32", want, got, 1e-4)

	// A timestep beyond the warmed table is computed on demand.
	ts2 := []int{120}
	x2 := tensor.New(1, 6).Randn(rng, 1)
	want2 := d.Forward(x2, ts2, false)
	got2 := d32.Forward(tensor.To32(x2), ts2)
	assertClose32(t, "DiffusionMLP32 cold timestep", want2, got2, 1e-4)
}

// TestForward32SteadyStateAllocs pins the zero-allocation contract of the f32
// inference path: after one warm call, Forward reuses every workspace.
func TestForward32SteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	d := NewDiffusionMLP(rng, 6, 32, 6, 2, 8, 0)
	d.WarmTimesteps(50)
	d32, err := d.Snapshot32()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.To32(tensor.New(8, 6).Randn(rng, 1))
	ts := []int{3, 7, 11, 19, 23, 31, 41, 47}
	d32.Forward(x, ts)                                                                   // warm workspaces
	if allocs := testing.AllocsPerRun(100, func() { d32.Forward(x, ts) }); allocs != 0 { //silofuse:bitwise-ok alloc counts are exact integers
		t.Errorf("DiffusionMLP32.Forward: %v allocs per run, want 0", allocs)
	}
}
