//silofuse:bitwise-ok claimed chunks must reproduce the serial product bit for bit
package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// inChunks runs k over [0, n) in chunks of size chunk, taken in the order
// perm gives: one order in which claims may take them.
func inChunks(k RangeKernel, n, chunk int, perm []int) {
	for _, c := range perm {
		k.RunRange(c*chunk, min(c*chunk+chunk, n))
	}
}

// funcRange is a kernelFn bound to its operands, as a RangeKernel.
type funcRange struct {
	kern         kernelFn
	a, b, c, dst *Matrix
}

func (k *funcRange) RunRange(lo, hi int) { k.kern(k.a, k.b, k.c, k.dst, lo, hi) }

// TestClaimedChunksKeepBits holds every product a training step runs — a@b,
// aᵀ@b and a@b + bias unpacked, and packed a@b + bias with its GELU
// epilogue, a@bᵀ from panels packed out of b, and aᵀ@b with b's column sums
// — to its serial result with ==, at the rows and widths of
// TestPackedMatchesUnpacked (the churn head's 2932 at up to 64 rows), on every
// tier: dispatched serially and through the pool, and run chunk by chunk in
// shuffled orders at two chunk sizes, as claims may take them. k = 300
// crosses a k block.
func TestClaimedChunksKeepBits(t *testing.T) {
	const k = 300
	for _, tr := range allTiers {
		t.Run(tr.String(), func(t *testing.T) {
			forceTier(t, tr)
			rng := rand.New(rand.NewSource(91))
			for _, n := range []int{8, 15, 16, 256, 2932} {
				b, bias := randMat(rng, k, n), randMat(rng, 1, n)
				bt := b.T()
				for _, rows := range []int{1, 7, 8, 9, 64, 500} {
					if rows*n > 256*2932 {
						continue // the wide head is covered at 64 rows
					}
					a := sprinkleZeros(rng, randMat(rng, rows, k))
					g := sprinkleZeros(rng, randMat(rng, rows, n)) // a@b's gradient, for aᵀ@g
					want := MatMulAddRowInto(New(rows, n), a, b, bias)
					wantAct := GELUInto(New(rows, n), want)
					wantT1 := MatMulT1Into(New(k, n), a, g)
					wantT := MatMulInto(New(rows, n), a, b) // a@(bᵀ)ᵀ
					wantSums := g.ColSums()

					type form struct {
						name string
						rows int // output rows
						want *Matrix
						run  func() *Matrix                // the dispatched product
						kern func(dst *Matrix) RangeKernel // its chunks
					}
					var p, pt, pg Packed
					var act *Matrix
					forms := []form{
						{"a@b", rows, wantT, func() *Matrix { return MatMulInto(dirty(rows, n), a, b) },
							func(dst *Matrix) RangeKernel { return &funcRange{kern: matmulRows, a: a, b: b, dst: dst} }},
						{"aᵀ@g", k, wantT1, func() *Matrix { return MatMulT1Into(dirty(k, n), a, g) },
							func(dst *Matrix) RangeKernel { return &funcRange{kern: matmulT1Cols, a: a, b: g, dst: dst} }},
						{"a@b+bias", rows, want, func() *Matrix { return MatMulAddRowInto(dirty(rows, n), a, b, bias) },
							func(dst *Matrix) RangeKernel {
								return &funcRange{kern: matmulAddRowRows, a: a, b: b, c: bias, dst: dst}
							}},
						{"packed a@b+bias, GELU", rows, want, func() *Matrix {
							p.Repack(b)
							act = dirty(rows, n)
							return MatMulAddRowPackedInto(dirty(rows, n), a, &p, bias, Epilogue{Act: act})
						}, func(dst *Matrix) RangeKernel {
							p.Repack(b)
							act = dirty(rows, n)
							p.prepare(dst, a, bias.Data, Epilogue{Act: act}, false)
							return &p.call
						}},
						{"a@(bᵀ packed as a transpose)", rows, wantT, func() *Matrix {
							pt.RepackT(bt)
							return MatMulPackedInto(dirty(rows, n), a, &pt)
						}, func(dst *Matrix) RangeKernel {
							pt.RepackT(bt)
							pt.prepare(dst, a, nil, Epilogue{}, false)
							return &pt.call
						}},
						{"aᵀ@g packed, column sums", k, wantT1, func() *Matrix {
							pg.Repack(g)
							sums := make([]float64, n)
							got := MatMulT1PackedInto(dirty(k, n), a, &pg, sums)
							assertSameBits(t, "column sums", FromSlice(1, n, wantSums), FromSlice(1, n, sums))
							return got
						}, func(dst *Matrix) RangeKernel {
							pg.Repack(g)
							pg.prepare(dst, a, nil, Epilogue{}, true)
							return &pg.call
						}},
					}
					for _, f := range forms {
						name := fmt.Sprintf("%s, %d x %d x %d", f.name, rows, k, n)
						for _, procs := range []int{1, 2} {
							prev := runtime.GOMAXPROCS(procs)
							assertSameBits(t, fmt.Sprintf("%s, %d procs", name, procs), f.want, f.run())
							if act != nil {
								assertSameBits(t, name+", its GELU", wantAct, act)
							}
							runtime.GOMAXPROCS(prev)
						}
						for _, chunk := range []int{tileM, 3 * tileM} {
							dst := dirty(f.rows, n)
							kern := f.kern(dst)
							perm := rng.Perm((f.rows + chunk - 1) / chunk)
							inChunks(kern, f.rows, chunk, perm)
							assertSameBits(t, fmt.Sprintf("%s, chunks of %d in order %v", name, chunk, perm), f.want, dst)
							if act != nil {
								assertSameBits(t, name+", its GELU in chunks", wantAct, act)
							}
						}
						act = nil
					}
				}
			}
		})
	}
}

// holdWorker is a Beside job that keeps its worker until release is closed.
type holdWorker struct {
	held    chan<- struct{}
	release <-chan struct{}
}

func (h *holdWorker) RunRange(_, _ int) {
	h.held <- struct{}{}
	<-h.release
}

// TestLateHelpersClaimNothing holds every pool worker, so that the helper
// tokens of pooled products queue behind them: each caller must claim every
// chunk itself and return its product, as a client whose helper is stuck
// behind another client's chunks does. Released, the workers reach states
// whose chunks are all claimed; they must claim nothing, and a state must
// not be recycled while one of them still reads it, which `make race` checks
// as the products that follow reuse the states.
func TestLateHelpersClaimNothing(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	ensurePool()
	rng := rand.New(rand.NewSource(92))
	a, b := randMat(rng, 256, 256), randMat(rng, 256, 256)
	want := naiveMatMulSkip(a, b)

	held, release := make(chan struct{}, poolWorkers), make(chan struct{})
	for w := 0; w < poolWorkers; w++ {
		Beside(&holdWorker{held: held, release: release})
	}
	for w := 0; w < poolWorkers; w++ {
		<-held
	}
	// Each pooled product leaves one token in the channel; stay below its
	// capacity, or the next send would wait for a worker that cannot come.
	for i := 0; i < cap(workCh)-poolWorkers; i++ {
		k := &countRange{visits: make([]int32, 4096), out: make([]float64, 4096), scale: 3}
		ParallelRange(k, len(k.out), parallelThreshold)
		for j, v := range k.visits {
			if v != 1 {
				t.Fatalf("held pool, range %d: index %d visited %d times", i, j, v)
			}
		}
	}
	assertSameBits(t, "product with every worker held", want, MatMulInto(New(256, 256), a, b))
	close(release)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := New(256, 256)
			for i := 0; i < 20; i++ {
				MatMulInto(dst, a, b)
			}
			for i := range want.Data {
				if dst.Data[i] != want.Data[i] {
					t.Errorf("after the late helpers: product differs at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}
