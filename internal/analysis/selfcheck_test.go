package analysis

import (
	"path/filepath"
	"testing"
)

// TestRepoSelfCheck runs the full analyzer suite over this repository and
// requires a clean tree — the same gate `make lint` applies. The invariants
// the analyzers encode (sorted map emission, tolerance-based float
// comparison, float64<->float32 conversions only at the precision boundary)
// must hold in the shipped source, so a change that breaks one fails here
// before it reaches CI.
func TestRepoSelfCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatalf("loading module at %s: %v", root, err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages from %s; wrong root?", len(pkgs), root)
	}
	diags := Run(All(), pkgs)
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
