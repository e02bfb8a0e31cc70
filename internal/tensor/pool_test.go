//silofuse:bitwise-ok determinism tests pin bit-reproducible outputs with exact comparisons
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// The Into kernels promise bit-identical results to their allocating
// counterparts — a fit's losses must not move when training
// switches to the destination-passing path. Every parity test therefore
// compares with ==, not a tolerance, and runs against a dirty destination
// buffer to prove the kernels do not depend on a zeroed dst.

func dirty(rows, cols int) *Matrix {
	return New(rows, cols).Fill(123.456)
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	return New(rows, cols).Randn(rng, 1)
}

func assertSameBits(t *testing.T, op string, want, got *Matrix) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", op, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatalf("%s: bit mismatch at %d: %v vs %v", op, i, want.Data[i], got.Data[i])
		}
	}
}

// naiveMatMulSkip is the reference implementation: for every output element the
// reduction runs in ascending-k order, the order every optimised kernel
// (blocked, unrolled, pooled) must reproduce exactly.
func naiveMatMulSkip(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				av := a.At(i, k)
				if av == 0 {
					continue
				}
				s += av * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// sprinkleZeros forces exact zeros into a so the kernels' sparse-skip and
// mixed zero/non-zero unrolled paths are exercised.
func sprinkleZeros(rng *rand.Rand, m *Matrix) *Matrix {
	for i := range m.Data {
		if rng.Intn(3) == 0 {
			m.Data[i] = 0
		}
	}
	return m
}

// oneHot returns a rows x cols matrix with a single 1 per row: the
// featurised form of a wide categorical column, where every coefficient
// group but one takes the skip path.
func oneHot(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		m.Set(i, rng.Intn(cols), 1)
	}
	return m
}

// TestMatMulMatchesNaiveReference pins every accumulating kernel to the
// bits of the ascending-k reference — the bits these kernels produced before
// their inner loop moved to the axpy primitives — on dense-with-zeros and
// one-hot coefficients (which the AVX-512 tier must leave on the skip path),
// on widths with every vector-tail length, serially and through the pool.
func TestMatMulMatchesNaiveReference(t *testing.T) {
	dims := [][3]int{{1, 1, 1}, {2, 7, 3}, {5, 4, 9}, {128, 64, 64}, {65, 33, 47}, {31, 130, 17}, {20, 37, 257}, {9, 300, 70},
		// Tile territory: whole strips with a tail, the 256-block seam, the
		// churn head in all three orientations, and a ragged everything.
		{500, 256, 256}, {256, 256, 2932}, {256, 2932, 256}, {13, 300, 19}}
	rng := rand.New(rand.NewSource(20))
	for _, d := range dims {
		m, k, n := d[0], d[1], d[2]
		b := randMat(rng, k, n)
		bias := randMat(rng, 1, n)
		for _, a := range []*Matrix{sprinkleZeros(rng, randMat(rng, m, k)), oneHot(rng, m, k)} {
			want := naiveMatMulSkip(a, b)
			wantBias := want.Clone().AddRowVector(bias.Data)
			at, bt := a.T(), b.T()
			for _, procs := range []int{1, 4} {
				prev := runtime.GOMAXPROCS(procs)
				assertSameBits(t, "MatMul vs naive", want, MatMul(a, b))
				assertSameBits(t, "MatMulInto vs naive", want, MatMulInto(dirty(m, n), a, b))
				// xᵀ@b via the T1 kernel against the same reference.
				assertSameBits(t, "MatMulT1Into vs naive", want, MatMulT1Into(dirty(m, n), at, b))
				// a@bᵀ via the dot-form T2 kernel: no skip, same bits for finite b.
				assertSameBits(t, "MatMulT2Into vs naive", want, MatMulT2Into(dirty(m, n), a, bt))
				assertSameBits(t, "MatMulAddRowInto vs naive", wantBias, MatMulAddRowInto(dirty(m, n), a, b, bias))
				runtime.GOMAXPROCS(prev)
			}
		}
	}
}

func TestMatMulIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 5, 2}, {128, 64, 64}, {65, 33, 47}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		want := MatMul(a, b)
		got := MatMulInto(dirty(m, n), a, b)
		assertSameBits(t, "MatMulInto", want, got)
	}
}

func TestMatMulT1IntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{2, 3, 4}, {64, 128, 64}, {33, 65, 47}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, k, m), randMat(rng, k, n)
		want := MatMulT1(a, b)
		got := MatMulT1Into(dirty(m, n), a, b)
		assertSameBits(t, "MatMulT1Into", want, got)
	}
}

func TestMatMulT2IntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dims := range [][3]int{{2, 3, 4}, {128, 64, 64}, {33, 65, 47}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randMat(rng, m, k), randMat(rng, n, k)
		want := MatMulT2(a, b)
		got := MatMulT2Into(dirty(m, n), a, b)
		assertSameBits(t, "MatMulT2Into", want, got)
	}
}

// TestMatMulAddRowIntoParity proves the fused kernel matches the exact
// two-pass arithmetic it replaces (matmul, then row-broadcast bias add) on
// every tier: where the tile adds the bias in its last store — masked column
// tails, K over several k blocks and rows left to the axpy kernels included —
// and where the sweep behind the axpy kernels does.
func TestMatMulAddRowIntoParity(t *testing.T) {
	for _, tr := range allTiers {
		t.Run(tr.String(), func(t *testing.T) {
			forceTier(t, tr)
			rng := rand.New(rand.NewSource(4))
			for _, dims := range [][3]int{{1, 2, 3}, {128, 64, 64}, {61, 37, 29}, {500, 256, 256}, {20, 600, 41}, {64, 513, 7}} {
				m, k, n := dims[0], dims[1], dims[2]
				a, b := sprinkleZeros(rng, randMat(rng, m, k)), randMat(rng, k, n)
				bias := randMat(rng, 1, n)
				want := naiveMatMulSkip(a, b).AddRowVector(bias.Data)
				got := MatMulAddRowInto(dirty(m, n), a, b, bias)
				assertSameBits(t, fmt.Sprintf("MatMulAddRowInto %dx%dx%d", m, k, n), want, got)
			}
		})
	}
}

func TestElementwiseIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := randMat(rng, 70, 90), randMat(rng, 70, 90)
	assertSameBits(t, "AddInto", New(70, 90).Add(a, b), AddInto(dirty(70, 90), a, b))
	assertSameBits(t, "SubInto", New(70, 90).Sub(a, b), SubInto(dirty(70, 90), a, b))
	assertSameBits(t, "MulElemInto", New(70, 90).MulElem(a, b), MulElemInto(dirty(70, 90), a, b))
	// In-place aliasing is allowed for elementwise ops.
	want := New(70, 90).Add(a, b)
	got := AddInto(a, a, b)
	assertSameBits(t, "AddInto aliased", want, got)
}

// TestGELUIntoMatchesFormula pins the pooled GELU kernels to the expressions
// the nn layer evaluated inline, serially and through the pool, including
// the in-place form and the pair that hands 1 + erf from forward to backward.
func TestGELUIntoMatchesFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x, g := randMat(rng, 300, 256), randMat(rng, 300, 256)
	want, wantGrad := New(300, 256), New(300, 256)
	for i, v := range x.Data {
		want.Data[i] = 0.5 * v * (1 + math.Erf(v*invSqrt2))
		cdf := 0.5 * (1 + math.Erf(v*invSqrt2))
		pdf := math.Exp(-0.5*v*v) / math.Sqrt(2*math.Pi)
		wantGrad.Data[i] = g.Data[i] * (cdf + v*pdf)
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		assertSameBits(t, "GELUInto", want, GELUInto(dirty(300, 256), x))
		assertSameBits(t, "GELUGradInto", wantGrad, GELUGradInto(dirty(300, 256), x, g))
		keep := dirty(300, 256)
		assertSameBits(t, "GELUKeepInto", want, GELUKeepInto(dirty(300, 256), keep, x))
		assertSameBits(t, "GELUGradKeptInto", wantGrad, GELUGradKeptInto(dirty(300, 256), x, keep, g))
		inPlace := x.Clone()
		assertSameBits(t, "GELUInto in place", want, GELUInto(inPlace, inPlace))
		runtime.GOMAXPROCS(prev)
	}
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// The last three shapes straddle parallelThreshold elements, where the
	// copy starts going to the pool in bands of rows.
	shapes := [][2]int{{0, 0}, {1, 1}, {1, 7}, {31, 33}, {32, 32}, {70, 129}, {255, 257}, {256, 256}, {257, 256}}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, d := range shapes {
			m := randMat(rng, d[0], d[1])
			got := TransposeInto(dirty(d[1], d[0]), m)
			for i := 0; i < m.Rows; i++ {
				for j := 0; j < m.Cols; j++ {
					if got.At(j, i) != m.At(i, j) {
						t.Fatalf("%dx%d procs %d: element (%d,%d) not transposed", d[0], d[1], procs, i, j)
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	for name, fn := range map[string]func(){
		"shape": func() { TransposeInto(New(3, 3), New(2, 3)) },
		"alias": func() { m := New(3, 3); TransposeInto(m, m) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TransposeInto %s mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestIntoAliasPanics(t *testing.T) {
	a, b := New(4, 4), New(4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when dst aliases an operand")
		}
	}()
	MatMulInto(a, a, b)
}

func TestGatherRowsIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := randMat(rng, 40, 7)
	idx := []int{5, 0, 39, 5, 17}
	want := m.GatherRows(idx)
	got := m.GatherRowsInto(dirty(len(idx), 7), idx)
	assertSameBits(t, "GatherRowsInto", want, got)
}

func TestColSumsIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMat(rng, 33, 9)
	want := m.ColSums()
	got := make([]float64, 9)
	for i := range got {
		got[i] = 1e9 // dirty
	}
	m.ColSumsInto(got)
	for j := range want {
		if want[j] != got[j] {
			t.Fatalf("ColSumsInto: bit mismatch at col %d: %v vs %v", j, want[j], got[j])
		}
	}
}

// TestPoolParityUnderParallelism raises GOMAXPROCS so dispatchKernel takes
// the pooled path, and checks results stay bit-identical to serial
// execution (fixed per-row reduction order regardless of chunking).
func TestPoolParityUnderParallelism(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(8))
	// Big enough to clear parallelThreshold on every kernel.
	a, b := randMat(rng, 96, 96), randMat(rng, 96, 96)
	bias := randMat(rng, 1, 96)

	serial := New(96, 96)
	matmulRows(a, b, nil, serial, 0, 96)
	assertSameBits(t, "pooled MatMul", serial, MatMul(a, b))

	serialT1 := New(96, 96)
	matmulT1Cols(a, b, nil, serialT1, 0, 96)
	assertSameBits(t, "pooled MatMulT1", serialT1, MatMulT1(a, b))

	serialT2 := New(96, 96)
	matmulT2Rows(a, b, nil, serialT2, 0, 96)
	assertSameBits(t, "pooled MatMulT2", serialT2, MatMulT2(a, b))

	serialFused := New(96, 96)
	matmulAddRowRows(a, b, bias, serialFused, 0, 96)
	assertSameBits(t, "pooled fused", serialFused, MatMulAddRowInto(New(96, 96), a, b, bias))

	if PoolWorkers() < 2 {
		t.Fatalf("worker pool did not start: %d workers", PoolWorkers())
	}
}

// TestPoolConcurrentCallers hammers the shared pool from many goroutines,
// with matmul chunks and range-kernel chunks interleaved on the one channel,
// to shake out races in the chunk channel and callState recycling (run under
// -race).
func TestPoolConcurrentCallers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(9))
	a, b := randMat(rng, 80, 80), randMat(rng, 80, 80)
	want := MatMul(a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New(80, 80)
			k := &countRange{visits: make([]int32, 300), out: make([]float64, 300), scale: 2}
			for it := 0; it < 50; it++ {
				MatMulInto(dst, a, b)
				ParallelRange(k, len(k.out), parallelThreshold)
			}
			for i := range want.Data {
				if dst.Data[i] != want.Data[i] {
					t.Errorf("concurrent pool result diverged at %d", i)
					return
				}
			}
			for i, n := range k.visits {
				if n != 50 {
					t.Errorf("concurrent range kernel visited index %d %d times in 50 calls", i, n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// countRange is a RangeKernel that records how often each index was
// visited and computes a value from the index and a carried scalar.
type countRange struct {
	visits []int32
	out    []float64
	scale  float64
}

func (k *countRange) RunRange(lo, hi int) {
	for i := lo; i < hi; i++ {
		k.visits[i]++
		k.out[i] = k.scale * float64(i)
	}
}

// TestParallelRangeCoversEveryIndexOnce runs a range kernel inline and
// through the pool, at work estimates either side of parallelThreshold and
// at lengths that do not divide by the worker count: every index is computed
// exactly once, and n <= 0 is a no-op.
func TestParallelRangeCoversEveryIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{0, 1, 2, 3, 5, 9, 257, 1000} {
			for _, work := range []int{parallelThreshold - 1, parallelThreshold, parallelThreshold + 1} {
				k := &countRange{visits: make([]int32, n), out: make([]float64, n), scale: 0.5}
				ParallelRange(k, n, work)
				for i := 0; i < n; i++ {
					if k.visits[i] != 1 || k.out[i] != 0.5*float64(i) {
						t.Fatalf("procs %d n %d work %d: index %d visited %d times, value %v", procs, n, work, i, k.visits[i], k.out[i])
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

// TestSteadyStateKernelAllocs pins the headline claim: destination-passing
// kernels allocate nothing once buffers exist. AllocsPerRun forces
// GOMAXPROCS=1, which also exercises the serial dispatch path.
func TestSteadyStateKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a, b := randMat(rng, 64, 64), randMat(rng, 64, 64)
	bias := randMat(rng, 1, 64)
	dst, keep := New(64, 64), New(64, 64)
	ranger := &countRange{visits: make([]int32, 64), out: make([]float64, 64)}
	var packed, packedT, packedG Packed
	packed.Repack(b)
	sums := make([]float64, 64)
	checks := map[string]func(){
		"MatMulAddRowPackedInto": func() { MatMulAddRowPackedInto(dst, a, &packed, bias, Epilogue{Act: keep}) },
		"Repack+MatMulAddRowPackedInto": func() {
			packed.Repack(b)
			MatMulAddRowPackedInto(dst, a, &packed, bias, Epilogue{Act: keep})
		},
		"RepackT+MatMulPackedInto": func() {
			packedT.RepackT(b)
			MatMulPackedInto(dst, a, &packedT)
		},
		"Repack+MatMulT1PackedInto": func() {
			packedG.Repack(b)
			MatMulT1PackedInto(dst, a, &packedG, sums)
		},
		"MatMulInto":       func() { MatMulInto(dst, a, b) },
		"MatMulT1Into":     func() { MatMulT1Into(dst, a, b) },
		"MatMulT2Into":     func() { MatMulT2Into(dst, a, b) },
		"MatMulAddRowInto": func() { MatMulAddRowInto(dst, a, b, bias) },
		"AddInto":          func() { AddInto(dst, a, b) },
		"CopyInto":         func() { CopyInto(dst, a) },
		"TransposeInto":    func() { TransposeInto(dst, a) },
		"GELUInto":         func() { GELUInto(dst, a) },
		"GELUGradInto":     func() { GELUGradInto(dst, a, b) },
		"GELUKeepInto":     func() { GELUKeepInto(dst, keep, a) },
		"GELUGradKeptInto": func() { GELUGradKeptInto(dst, a, keep, b) },
		"ParallelRange":    func() { ParallelRange(ranger, len(ranger.out), parallelThreshold) },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, allocs)
		}
	}
}

// TestPooledDispatchAllocs holds a pooled dispatch to less than half an
// allocation per call. The path is not allocation-free by construction: the
// caller's wait on the done channel takes a runtime sudog on the P it parks
// on and returns it on the P it wakes on. That cache is emptied by a GC cycle
// and refills in a burst of up to 64 allocations, so the test collects once,
// warms the cache with a fixed number of calls, and judges the median of
// several batches measured with one MemStats pair each (the structs are
// hoisted: two fresh 5.8 KB MemStats per call were themselves the garbage
// that started a cycle inside the measured loop). One refill cannot move a
// median; an allocation made on every call reads at least 1.0 in every
// batch.
func TestPooledDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime allocates in the background, polluting MemStats deltas")
	}
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(11))
	// Big enough to clear parallelThreshold on the elementwise kernels too.
	a, b := randMat(rng, 256, 256), randMat(rng, 256, 256)
	dst, act, bias := New(256, 256), New(256, 256), randMat(rng, 1, 256)
	ranger := &countRange{visits: make([]int32, 256), out: make([]float64, 256)}
	var packed, packedT, packedG Packed
	packed.Repack(b)
	sums := make([]float64, 256)
	checks := map[string]func(){
		"MatMulAddRowPackedInto": func() { MatMulAddRowPackedInto(dst, a, &packed, bias, Epilogue{Act: act}) },
		"RepackT+MatMulPackedInto": func() {
			packedT.RepackT(b)
			MatMulPackedInto(dst, a, &packedT)
		},
		"Repack+MatMulT1PackedInto": func() {
			packedG.Repack(b)
			MatMulT1PackedInto(dst, a, &packedG, sums)
		},
		"MatMulInto":    func() { MatMulInto(dst, a, b) },
		"GELUInto":      func() { GELUInto(dst, a) },
		"GELUGradInto":  func() { GELUGradInto(dst, a, b) },
		"AddInto":       func() { AddInto(dst, a, b) },
		"TransposeInto": func() { TransposeInto(dst, a) },
		"ParallelRange": func() { ParallelRange(ranger, len(ranger.out), parallelThreshold) },
	}
	const warmup, batches, calls = 1000, 5, 100
	var ms0, ms1 runtime.MemStats
	for name, fn := range checks {
		runtime.GC()
		for i := 0; i < warmup; i++ {
			fn()
		}
		var perCall [batches]float64
		for k := range perCall {
			runtime.ReadMemStats(&ms0)
			for i := 0; i < calls; i++ {
				fn()
			}
			runtime.ReadMemStats(&ms1)
			perCall[k] = float64(ms1.Mallocs-ms0.Mallocs) / calls
		}
		sort.Float64s(perCall[:])
		if median := perCall[batches/2]; median > 0.5 {
			t.Errorf("pooled %s: median batch makes %v allocs per call (batches %v), want < 0.5", name, median, perCall)
		}
	}
}

// busyRange is a RangeKernel whose every chunk takes a fixed time, whatever
// its bounds: what a dispatch costs on top is then the pool's own.
type busyRange struct{ d time.Duration }

func (k *busyRange) RunRange(lo, hi int) {
	for t0 := time.Now(); time.Since(t0) < k.d; {
	}
}

// BenchmarkDispatchOverhead reports what a two-chunk dispatch costs beyond the
// chunks themselves, each 200 µs (a 250-row half of a 500 x 256 x 256
// product): the wait for the second P to start on its chunk, and the wait for
// whichever finishes last. A denoising step pays it about ten times.
func BenchmarkDispatchOverhead(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("needs two Ps")
	}
	k := &busyRange{d: 200 * time.Microsecond}
	ParallelRange(k, 2, parallelThreshold) // start the pool
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ParallelRange(k, 2, parallelThreshold)
	}
	b.ReportMetric(float64(b.Elapsed()-time.Duration(b.N)*k.d)/float64(b.N)/1e3, "overhead-µs/op")
}

const benchM, benchK, benchN = 128, 64, 64 // fast-scale diffusion step shapes

func benchOperands(bb *testing.B) (a, b, bias, dst *Matrix) {
	rng := rand.New(rand.NewSource(12))
	a = randMat(rng, benchM, benchK)
	b = randMat(rng, benchK, benchN)
	bias = randMat(rng, 1, benchN)
	dst = New(benchM, benchN)
	bb.ReportAllocs()
	bb.ResetTimer()
	return
}

func BenchmarkMatMul(b *testing.B) {
	a, m, _, _ := benchOperands(b)
	for i := 0; i < b.N; i++ {
		MatMul(a, m)
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	a, m, _, dst := benchOperands(b)
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, m)
	}
}

func BenchmarkMatMulAddRowInto(b *testing.B) {
	a, m, bias, dst := benchOperands(b)
	for i := 0; i < b.N; i++ {
		MatMulAddRowInto(dst, a, m, bias)
	}
}

func BenchmarkMatMulT1(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, benchM, benchK)
	m := randMat(rng, benchM, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT1(a, m)
	}
}

func BenchmarkMatMulT1Into(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	a := randMat(rng, benchM, benchK)
	m := randMat(rng, benchM, benchN)
	dst := New(benchK, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT1Into(dst, a, m)
	}
}

func BenchmarkMatMulT2(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, benchM, benchK)
	m := randMat(rng, benchN, benchK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT2(a, m)
	}
}

func BenchmarkMatMulT2Into(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	a := randMat(rng, benchM, benchK)
	m := randMat(rng, benchN, benchK)
	dst := New(benchM, benchN)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulT2Into(dst, a, m)
	}
}
