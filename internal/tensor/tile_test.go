//silofuse:bitwise-ok the tile must reproduce the Go reference bit for bit
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// cpuTier is the tier start-up detection chose, before any test forces
// another.
var cpuTier = kernelTier

var allTiers = []tier{tierAVX512, tierAVX2, tierGo}

// forceTier makes the matmul kernels run on tier want for the rest of the
// test, or skips it where this CPU or build does not have that tier.
func forceTier(tb testing.TB, want tier) {
	tb.Helper()
	if want > cpuTier {
		tb.Skipf("kernel tier %v needs a CPU and build that have it; this process has %v", want, cpuTier)
	}
	prev := kernelTier
	kernelTier = want
	tb.Cleanup(func() { kernelTier = prev })
}

// tileCoef draws a coefficient: mostly ordinary normals, with the values whose
// products a careless kernel gets wrong — signed zeros (multiplied by the
// tile, skipped by the reference), subnormals, and magnitudes whose products
// underflow.
func tileCoef(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.Copysign(math.SmallestNonzeroFloat64*float64(1+rng.Intn(1000)), rng.NormFloat64())
	case 3:
		return rng.NormFloat64() * 1e-160
	default:
		return rng.NormFloat64()
	}
}

// offsetMatrix returns a rows x cols matrix whose storage starts at an odd
// element offset of its backing array and is followed by a guard element, so
// no vector access is aligned and a store past the end is visible.
func offsetMatrix(rows, cols int, guard float64) (*Matrix, []float64) {
	buf := make([]float64, rows*cols+4)
	for i := range buf {
		buf[i] = guard
	}
	return FromSlice(rows, cols, buf[3:3+rows*cols]), buf
}

// TestTileMatchesGoReference drives the tile loop nest directly, in both
// coefficient layouts, over every column mask and both sides of the k-block
// seam, and requires the bits of the ascending-k zero-skip reference, also on
// rows whose products underflow (underflowRows). b holds
// ±Inf and NaN only in rows whose coefficients are all non-zero: multiplying
// a zero by them is the one place the tile and the skip differ, and it is
// outside the contract (as it is for MatMulT2Into). Each shape runs again with
// a bias row (edge values included): the tile adds it in the store of the last
// k block, the rows it leaves to the axpy kernels get it from the sweep, and
// both must end in the bits of the reference followed by AddRowVector.
func TestTileMatchesGoReference(t *testing.T) {
	forceTier(t, tierAVX512)
	const guard = 1234.5
	rng := rand.New(rand.NewSource(40))
	for _, m := range []int{8, 16, 500} {
		for _, k := range []int{1, 3, 4, 14, 255, 256, 257, 513, 2932} {
			for _, n := range []int{8, 9, 15, 16, 17, 31, 256, 2932} {
				if (m == 16 && k*n > 256*2932) || (m == 500 && (k > 257 || n > 256)) {
					continue // the large shapes are covered at 8 rows
				}
				a, _ := offsetMatrix(m, k, guard)
				for i := range a.Data {
					a.Data[i] = tileCoef(rng)
				}
				underflowRows(rng, a)
				b, _ := offsetMatrix(k, n, guard)
				for i := range b.Data {
					b.Data[i] = rng.NormFloat64()
				}
				// A few rows of b get non-finite values; their coefficients
				// are made non-zero in every output row.
				for _, kk := range []int{0, k / 2, k - 1} {
					if rng.Intn(2) == 0 {
						continue
					}
					b.Data[kk*n+rng.Intn(n)] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
					for i := 0; i < m; i++ {
						if a.Data[i*k+kk] == 0 {
							a.Data[i*k+kk] = 1 + rng.Float64()
						}
					}
				}
				want := naiveMatMulSkip(a, b)
				bias, _ := offsetMatrix(1, n, guard)
				for j := range bias.Data {
					bias.Data[j] = axpyEdge(rng)
				}
				wantBiased := want.Clone().AddRowVector(bias.Data)
				at, _ := offsetMatrix(k, m, guard)
				TransposeInto(at, a)
				for _, form := range []struct {
					name string
					a    *Matrix
					t1   bool
					bias []float64
					want *Matrix
				}{{"a@b", a, false, nil, want}, {"aT@b", at, true, nil, want},
					{"a@b+bias", a, false, bias.Data, wantBiased}, {"aT@b+bias", at, true, bias.Data, wantBiased}} {
					got, buf := offsetMatrix(m, n, guard)
					// 500 rows go as two ragged chunks of 250, so row tails run
					// beside tiles; the others as one chunk after an empty one.
					cut := m / 500 * 250
					matmulRange(form.a, b, got, form.bias, nil, 0, cut, form.t1)
					matmulRange(form.a, b, got, form.bias, nil, cut, m, form.t1)
					assertSameFloats(t, fmt.Sprintf("%s %dx%dx%d", form.name, m, k, n), form.want.Data, got.Data)
					if buf[2] != guard || buf[3+m*n] != guard {
						t.Fatalf("%s %dx%dx%d: element outside dst changed", form.name, m, k, n)
					}
				}
			}
		}
	}
}

// TestTileMaskedStoreGuards checks every column tail against a guard placed
// directly after each masked row: the output is a window of a wider matrix,
// and the columns beside the window must keep their contents.
func TestTileMaskedStoreGuards(t *testing.T) {
	forceTier(t, tierAVX512)
	rng := rand.New(rand.NewSource(41))
	const m, k, wide = 16, 300, 40
	a := randMat(rng, m, k)
	for w := 1; w <= tileN; w++ {
		b := randMat(rng, k, w)
		want := naiveMatMulSkip(a, b)
		window := dirty(m, wide)
		var panel [tileKC * tileN]float64
		for k0 := 0; k0 < k; k0 += tileKC {
			kc := min(tileKC, k-k0)
			packPanel16(&panel[0], &b.Data[k0*w], uintptr(w)*8, kc, uint32(1)<<w-1)
			for i0 := 0; i0 < m; i0 += tileM {
				tile8x16(&window.Data[i0*wide+3], wide*8, &a.Data[i0*k+k0], uintptr(k)*8, 8,
					&panel[0], kc, uint32(1)<<w-1, k0 > 0, nil)
			}
		}
		for i := 0; i < m; i++ {
			row := window.Row(i)
			assertSameFloats(t, fmt.Sprintf("w=%d row %d", w, i), want.Row(i), row[3:3+w])
			for j, v := range row {
				if (j < 3 || j >= 3+w) && v != 123.456 {
					t.Fatalf("w=%d: row %d column %d outside the mask changed to %v", w, i, j, v)
				}
			}
		}
	}
}

// TestMatMulTiersAgree runs the public kernels on every tier this process
// has and requires identical bits from each, serially and pooled, on a dirty
// destination, with rows whose products underflow (underflowRows) beside
// dense rows with zeros.
func TestMatMulTiersAgree(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(42))
	const m, k, n = 100, 300, 37
	a, b, bias := underflowRows(rng, sprinkleZeros(rng, randMat(rng, m, k))), randMat(rng, k, n), randMat(rng, 1, n)
	at := a.T()
	want := naiveMatMulSkip(a, b)
	for _, tr := range allTiers {
		t.Run(tr.String(), func(t *testing.T) {
			forceTier(t, tr)
			assertSameBits(t, "MatMulInto", want, MatMulInto(dirty(m, n), a, b))
			assertSameBits(t, "MatMulT1Into", want, MatMulT1Into(dirty(m, n), at, b))
			assertSameBits(t, "MatMulAddRowInto", want.Clone().AddRowVector(bias.Data), MatMulAddRowInto(dirty(m, n), a, b, bias))
		})
	}
}

// TestSparseStripsTakeTheSkipPath pins the choice the zero count makes: a
// one-hot strip is sparse in both layouts, a dense one with a third of its
// coefficients zeroed is not.
func TestSparseStripsTakeTheSkipPath(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	hot := oneHot(rng, 16, 300)
	dense := sprinkleZeros(rng, randMat(rng, 16, 300))
	for i0 := 0; i0 < 16; i0 += tileM {
		if !sparseStrip(hot, i0, false) || !sparseStrip(hot.T(), i0, true) {
			t.Errorf("one-hot strip at %d not classified sparse", i0)
		}
		if sparseStrip(dense, i0, false) || sparseStrip(dense.T(), i0, true) {
			t.Errorf("dense strip at %d classified sparse", i0)
		}
	}
}

// TestMatmulChunksOnStripMultiples pins the dispatch rounding: every chunk of
// a matmul but the last is a whole number of strips, so a 500-row product
// sends at most 500 mod 8 = 4 rows to the axpy row tail, however many workers
// share it.
func TestMatmulChunksOnStripMultiples(t *testing.T) {
	for _, procs := range []int{2, 3, 4, 7} {
		prev := runtime.GOMAXPROCS(procs)
		var mu sync.Mutex
		ragged, covered := 0, 0
		record := func(_, _, _, _ *Matrix, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			ragged += (hi - lo) % tileM
			covered += hi - lo
		}
		dispatchMatmul(record, nil, nil, nil, nil, 500, 500*256*256)
		runtime.GOMAXPROCS(prev)
		if covered != 500 || ragged > 4 {
			t.Errorf("GOMAXPROCS=%d: %d rows covered, %d of them in ragged chunk tails; want 500 and at most 4", procs, covered, ragged)
		}
	}
}

// BenchmarkMatMulShapes reports GFLOP/s for the products the fits and the
// sampler actually run — the sampler's 500-row backbone layer, the churn
// silo's 2932-wide head forward, its weight gradient (T1) and its
// K = 2932 back-product, the fast-scale step, and a one-hot input layer —
// on every tier this process has. The one-hot row is where the tile must not
// be used: all three tiers run it on the zero-skip axpy path.
func BenchmarkMatMulShapes(b *testing.B) {
	rng := rand.New(rand.NewSource(44))
	type shape struct {
		name    string
		m, k, n int
		t1, hot bool
	}
	for _, s := range []shape{
		{"backbone-500x256x256", 500, 256, 256, false, false},
		{"head-256x256x2932", 256, 256, 2932, false, false},
		{"headT1-256x256x2932", 256, 256, 2932, true, false},
		{"headback-256x2932x256", 256, 2932, 256, false, false},
		{"fast-128x64x64", 128, 64, 64, false, false},
		{"onehot-256x2964x256", 256, 2964, 256, false, true},
	} {
		a := randMat(rng, s.m, s.k)
		if s.hot {
			a = oneHot(rng, s.m, s.k)
		}
		if s.t1 {
			a = a.T()
		}
		m, dst := randMat(rng, s.k, s.n), New(s.m, s.n)
		for _, tr := range allTiers {
			b.Run(fmt.Sprintf("%s/%v", s.name, tr), func(b *testing.B) {
				forceTier(b, tr)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if s.t1 {
						MatMulT1Into(dst, a, m)
					} else {
						MatMulInto(dst, a, m)
					}
				}
				flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
