//go:build linux && amd64 && !purego

//silofuse:bitwise-ok the tile must reproduce the Go reference bit for bit
package tensor

import (
	"fmt"
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// TestTileStopsAtPageEnd puts the last coefficient of the strip, the last
// enabled column of the tile's last row, the last element of b and the last
// addend of the bias row in turn on the final eight bytes before an unmapped
// page. The masked-off lanes of the dst load and store, of the panel pack's
// loads and of the bias load then lie in that page: a kernel that touched them
// would fault instead of failing.
func TestTileStopsAtPageEnd(t *testing.T) {
	forceTier(t, tierAVX512)
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 9*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[8*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	mapped := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), 8*page/8)

	rng := rand.New(rand.NewSource(45))
	const k, half, ldd = 170, 85, 24
	for w := 1; w < tileN; w++ {
		b := randMat(rng, k, w)
		mask := uint32(1)<<w - 1
		var panel, fromPageEnd [tileKC * tileN]float64
		packPanel16(&panel[0], &b.Data[0], uintptr(w)*8, k, mask)
		pageB := mapped[len(mapped)-k*w:]
		copy(pageB, b.Data)
		packPanel16(&fromPageEnd[0], &pageB[0], uintptr(w)*8, k, mask)
		if panel != fromPageEnd {
			t.Fatalf("w=%d: panel packed from the page end differs", w)
		}
		// Two k blocks, so the masked load runs as well as the masked store.
		run := func(dst, a, bias []float64) {
			tile8x16(&dst[0], ldd*8, &a[0], k*8, 8, &panel[0], half, mask, false, nil)
			tile8x16(&dst[0], ldd*8, &a[half], k*8, 8, &panel[half*tileN], k-half, mask, true, &bias[0])
		}

		check := func(what string, dst []float64, want *Matrix) {
			for r := 0; r < tileM; r++ {
				assertSameFloats(t, fmt.Sprintf("%s at page end, w=%d row %d", what, w, r), want.Row(r), dst[r*ldd:r*ldd+w])
			}
		}
		bias := randMat(rng, 1, w).Data
		a := FromSlice(tileM, k, mapped[len(mapped)-tileM*k:]).Randn(rng, 1)
		want := naiveMatMulSkip(a, b).AddRowVector(bias)
		heapDst := make([]float64, tileM*ldd)
		run(heapDst, a.Data, bias)
		check("a", heapDst, want)

		// dst rows are ldd apart and hold w columns each; row 7 ends the page.
		heapA := a.Clone()
		pageDst := mapped[len(mapped)-(tileM-1)*ldd-w:]
		run(pageDst, heapA.Data, bias)
		check("dst", pageDst, want)

		pageBias := mapped[len(mapped)-w:]
		copy(pageBias, bias)
		clear(heapDst)
		run(heapDst, heapA.Data, pageBias)
		check("bias", heapDst, want)
	}
}

// TestLaneKernelsStopAtPageEnd runs every lane kernel on operands whose last
// element is the last eight bytes before an unmapped page, at every length
// that leaves a masked final vector: the masked-off lanes of each load and
// store lie in that page.
func TestLaneKernelsStopAtPageEnd(t *testing.T) {
	forceTier(t, tierAVX512)
	page := syscall.Getpagesize()
	// Four operands, each at the end of its own mapped page.
	mem, err := syscall.Mmap(-1, 0, 8*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	var ends [4][]float64
	for i := range ends {
		if err := syscall.Mprotect(mem[(2*i+1)*page:(2*i+2)*page], syscall.PROT_NONE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
		ends[i] = unsafe.Slice((*float64)(unsafe.Pointer(&mem[2*i*page])), page/8)
	}
	atEnd := func(i int, src []float64) []float64 {
		s := ends[i][len(ends[i])-len(src):]
		copy(s, src)
		return s
	}
	rng := rand.New(rand.NewSource(46))
	for n := 1; n <= 17; n++ {
		x, g := geluInput(rng, n, 1).Data, randMat(rng, 1, n).Data
		want, wantKeep, wantGrad, wantExp := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		geluScalar(want, wantKeep, wantGrad, x, g)
		expSubGo(wantExp, x, 0.25)

		px, pg := FromSlice(1, n, atEnd(0, x)), FromSlice(1, n, atEnd(1, g))
		dst, keep := FromSlice(1, n, atEnd(2, make([]float64, n))), FromSlice(1, n, atEnd(3, make([]float64, n)))
		geluElems(px, nil, nil, dst, 0, n)
		assertSameFloats(t, fmt.Sprintf("geluElems n=%d", n), want, dst.Data)
		geluElems(px, nil, keep, dst, 0, n)
		assertSameFloats(t, fmt.Sprintf("geluElems keeping n=%d", n), want, dst.Data)
		assertSameFloats(t, fmt.Sprintf("geluElems keep n=%d", n), wantKeep, keep.Data)
		geluGradElems(px, pg, nil, dst, 0, n)
		assertSameFloats(t, fmt.Sprintf("geluGradElems n=%d", n), wantGrad, dst.Data)
		geluGradElems(px, pg, keep, dst, 0, n)
		assertSameFloats(t, fmt.Sprintf("geluGradElems kept n=%d", n), wantGrad, dst.Data)
		ExpSubInto(dst.Data, px.Data, 0.25)
		assertSameFloats(t, fmt.Sprintf("ExpSubInto n=%d", n), wantExp, dst.Data)
		erfLanes(dst.Data, px.Data)
		erfGo(want, x)
		assertSameFloats(t, fmt.Sprintf("erfLanes n=%d", n), want, dst.Data)

		// Adam: w, g, m and v each end a page.
		c := &AdamCoef{LR: 1e-3, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, BC1: 0.1, BC2: 0.001}
		w0 := randMat(rng, 1, n).Data
		wantW, wantG, wantM, wantV := append([]float64{}, w0...), append([]float64{}, g...), make([]float64, n), make([]float64, n)
		adamGo(wantW, wantG, wantM, wantV, c)
		pw, pgr, pm, pv := atEnd(0, w0), atEnd(1, g), atEnd(2, make([]float64, n)), atEnd(3, make([]float64, n))
		AdamUpdate(pw, pgr, pm, pv, c)
		assertSameFloats(t, fmt.Sprintf("AdamUpdate w n=%d", n), wantW, pw)
		assertSameFloats(t, fmt.Sprintf("AdamUpdate m n=%d", n), wantM, pm)
		assertSameFloats(t, fmt.Sprintf("AdamUpdate v n=%d", n), wantV, pv)
		assertSameFloats(t, fmt.Sprintf("AdamUpdate g n=%d", n), wantG, pgr)
	}
}
