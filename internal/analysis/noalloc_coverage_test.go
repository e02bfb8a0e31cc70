package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// noallocPinned is the complete expected //silofuse:noalloc annotation set of
// the kernel packages, keyed "package.[Recv.]Func". It mirrors, entry for
// entry, the functions the steady-state allocation tests exercise:
//
//   - tensor kernels: TestSteadyStateKernelAllocs and TestPooledDispatchAllocs
//     (pool_test.go) pin the *Into matmul/elementwise/GELU/transpose/workspace
//     family and ParallelRange, the pool's entry for range kernels — and,
//     under the matmuls on an AVX-512 CPU, the register tile's loop nest
//     (matmulRange, tilePanels), whose 32 KB panel must stay on the stack;
//     TestLaneKernelAllocs (vmath_test.go) pins ExpSubInto and AdamUpdate,
//     the lane kernels that are called outside the *Into matrix family,
//     fix-up vectors included;
//   - nn warm paths: TestLinearSteadyStateAllocs (gradcheck_test.go) pins
//     Linear.Forward/Backward/BackwardParams, GELU.Forward/Backward,
//     Adam.Step, SoftmaxRowInto and CrossEntropyRowInto (which also sits
//     under the autoencoder's TestReconstructionLossRowwise), and
//     MSELossInto sits inside the diffusion train-step loop below;
//   - autoencoder: TestTrainStepWarmAllocs (input_test.go) pins TrainStep
//     with the gather/scatter input layer's Forward/BackwardParams under it;
//   - diffusion: TestTrainStepSteadyStateAllocs and TestSamplePerStepAllocs
//     (perf_test.go) pin TrainStep/SampleWithRng, the backbone
//     Forward/Backward they drive, and the QSample/timestep kernels;
//   - f32 kernels: TestSteadyState32KernelAllocs (matmul32_test.go) pins the
//     tensor f32 matmul/elementwise/conversion family, and
//     TestForward32SteadyStateAllocs (forward32_test.go) pins
//     DiffusionMLP32.Forward with the Linear32/GELU32/Sequential32 forwards
//     it drives;
//   - batched sampling: TestSampleBatchWarmAllocs (sample_batch_test.go)
//     pins SampleBatchWithRngs.
//
// Adding an annotation without extending this list (or vice versa) fails the
// test, so the annotation set cannot drift from the perf suite it documents.
var noallocPinned = []string{
	"autoencoder.Autoencoder.TrainStep",
	"autoencoder.inputLayer.BackwardParams",
	"autoencoder.inputLayer.Forward",
	"diffusion.Gaussian.QSampleInto",
	"diffusion.Gaussian.SampleTimestepsInto",
	"diffusion.Model.SampleBatchWithRngs",
	"diffusion.Model.SampleWithRng",
	"diffusion.Model.TrainStep",
	"nn.Adam.Step",
	"nn.DiffusionMLP.Backward",
	"nn.DiffusionMLP.Forward",
	"nn.DiffusionMLP32.Forward",
	"nn.GELU.Backward",
	"nn.GELU.Forward",
	"nn.GELU32.Forward",
	"nn.Linear.Backward",
	"nn.Linear.BackwardParams",
	"nn.Linear.Forward",
	"nn.Linear32.Forward",
	"nn.Sequential32.Forward",
	"nn.CrossEntropyRowInto",
	"nn.MSELossInto",
	"nn.SoftmaxRowInto",
	"tensor.AdamUpdate",
	"tensor.Add32Into",
	"tensor.AddInto",
	"tensor.ConvertInto32",
	"tensor.ConvertInto64",
	"tensor.CopyInto",
	"tensor.ExpSubInto",
	"tensor.GELUGradInto",
	"tensor.GELUGradKeptInto",
	"tensor.GELUInto",
	"tensor.GELUKeepInto",
	"tensor.MatMul32Into",
	"tensor.MatMulAddRow32Into",
	"tensor.Matrix.ColSumsInto",
	"tensor.Matrix.GatherRowsInto",
	"tensor.MatMulAddRowInto",
	"tensor.MatMulInto",
	"tensor.MatMulT1Into",
	"tensor.MatMulT2Into",
	"tensor.MulElemInto",
	"tensor.ParallelRange",
	"tensor.SubInto",
	"tensor.TransposeInto",
	"tensor.matmulRange",
	"tensor.tilePanels",
}

// TestNoallocAnnotationCoverage scans the kernel packages' non-test sources
// and requires the set of //silofuse:noalloc-annotated functions to equal
// noallocPinned exactly.
func TestNoallocAnnotationCoverage(t *testing.T) {
	var got []string
	fset := token.NewFileSet()
	for _, pkg := range []string{"tensor", "nn", "diffusion", "autoencoder"} {
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !FuncAnnotated(AnnotNoAlloc, fd) {
					continue
				}
				name := pkg + "."
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					typ := fd.Recv.List[0].Type
					if star, ok := typ.(*ast.StarExpr); ok {
						typ = star.X
					}
					if id, ok := typ.(*ast.Ident); ok {
						name += id.Name + "."
					}
				}
				name += fd.Name.Name
				got = append(got, name)
			}
		}
	}
	sort.Strings(got)
	want := append([]string{}, noallocPinned...)
	sort.Strings(want)

	gotSet := make(map[string]bool, len(got))
	for _, g := range got {
		gotSet[g] = true
	}
	for _, w := range want {
		if !gotSet[w] {
			t.Errorf("pinned hot-path function %s has lost its //silofuse:noalloc annotation", w)
		}
		delete(gotSet, w)
	}
	for g := range gotSet {
		t.Errorf("function %s is annotated //silofuse:noalloc but not pinned; add it to noallocPinned and to an AllocsPerRun test", g)
	}
}
